# Runs a bench binary with a --benchmark_filter that matches nothing, in
# a fresh working directory, and fails if the bench wrote its JSON
# record anyway (an empty record would overwrite a checked-in one).
#
#   cmake -DBENCH=<binary> -DRECORD=<file name> -DWORKDIR=<dir> -P this
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" "--benchmark_filter=^NOMATCH$"
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
if(EXISTS "${WORKDIR}/${RECORD}")
  message(FATAL_ERROR "${BENCH} wrote ${RECORD} although no benchmark ran")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
