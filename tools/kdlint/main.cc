// kdlint driver: argument parsing, file discovery, mode selection,
// reporting. See kdlint.h for the rule catalogue and LINT.md for the
// full manual.
//
//   kdlint [--mode=auto|token] [--json] [--sarif] [--rules=R1,R2]
//          [--repo-scope] [--show-suppressed] [--baseline=FILE]
//          [--write-baseline=FILE] [--capabilities] <file-or-dir>...
//
// There is one analyzer (token mode); `--mode` accepts only the values
// that name it.
//
// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/IO error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "kdlint.h"

namespace kdlint {
namespace {

namespace fs = std::filesystem;

struct Cli {
  Options opts;
  bool json = false;
  bool sarif = false;
  bool capabilities = false;
  std::string baseline_in;
  std::string baseline_out;
  std::vector<std::string> paths;
};

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--mode=auto|token] [--json] [--sarif] [--rules=R1,..] "
         "[--repo-scope]\n"
         "       [--show-suppressed] [--baseline=FILE] "
         "[--write-baseline=FILE]\n"
         "       [--capabilities] <file-or-dir>...\n";
  return 2;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ParseArgs(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--sarif") {
      cli.sarif = true;
    } else if (arg == "--repo-scope") {
      cli.opts.repo_scope = true;
    } else if (arg == "--show-suppressed") {
      cli.opts.show_suppressed = true;
    } else if (arg == "--capabilities") {
      cli.capabilities = true;
    } else if (StartsWith(arg, "--mode=")) {
      const std::string mode = arg.substr(7);
      if (mode != "auto" && mode != "token") return false;
    } else if (StartsWith(arg, "--rules=")) {
      std::stringstream ss(arg.substr(8));
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        if (!rule.empty()) cli.opts.rules.insert(rule);
      }
    } else if (StartsWith(arg, "--baseline=")) {
      cli.baseline_in = arg.substr(11);
    } else if (StartsWith(arg, "--write-baseline=")) {
      cli.baseline_out = arg.substr(17);
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      cli.paths.push_back(arg);
    }
  }
  return true;
}

bool IsSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

// Expands file/directory arguments into a sorted, de-duplicated list
// of source files. Build trees are skipped so `kdlint .` stays sane.
std::vector<std::string> CollectFiles(const std::vector<std::string>& paths,
                                      bool& ok) {
  std::vector<std::string> files;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           it != fs::recursive_directory_iterator(); ++it) {
        const fs::path& entry = it->path();
        const std::string name = entry.filename().string();
        if (it->is_directory() &&
            (StartsWith(name, "build") || name == ".git")) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && IsSourceFile(entry)) {
          files.push_back(entry.generic_string());
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(fs::path(p).generic_string());
    } else {
      std::cerr << "kdlint: no such file or directory: " << p << "\n";
      ok = false;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool LoadBaseline(const std::string& path, std::set<std::string>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '#') out.insert(line);
  }
  return true;
}

void RunTokenMode(const std::vector<std::string>& files, const Options& opts,
                  std::vector<Finding>& findings) {
  for (const std::string& file : files) {
    std::string source;
    if (!ReadFile(file, source)) {
      std::cerr << "kdlint: cannot read " << file << "\n";
      continue;
    }
    std::string sibling;
    if (fs::path(file).extension() == ".cc") {
      fs::path header = fs::path(file).replace_extension(".h");
      std::error_code ec;
      if (fs::is_regular_file(header, ec)) {
        ReadFile(header.generic_string(), sibling);
      }
    }
    std::vector<Finding> per_file =
        AnalyzeSource(file, source, sibling, opts);
    findings.insert(findings.end(), per_file.begin(), per_file.end());
  }
}

int Main(int argc, char** argv) {
  Cli cli;
  if (!ParseArgs(argc, argv, cli)) return Usage(argv[0]);
  if (cli.capabilities) {
    std::cout << "modes: token\n"
              << "rules: R0 R1 R2 R3 R4 R5 R6 R7 R8\n"
              << "outputs: text json sarif\n";
    return 0;
  }
  if (cli.paths.empty()) return Usage(argv[0]);
  if (!cli.baseline_in.empty() &&
      !LoadBaseline(cli.baseline_in, cli.opts.baseline)) {
    std::cerr << "kdlint: cannot read baseline " << cli.baseline_in << "\n";
    return 2;
  }

  bool ok = true;
  const std::vector<std::string> files = CollectFiles(cli.paths, ok);
  if (!ok) return 2;

  // Cross-TU pre-pass for R7/R8: harvest every KD_LANE_OWNED /
  // KD_LANE_SEAM annotation (and lane-owned accessor signature) from
  // all input files plus their sibling headers, so per-file analysis
  // sees the whole ownership model even when the
  // annotation lives in a header the input never includes.
  for (const std::string& file : files) {
    std::string source;
    if (ReadFile(file, source)) HarvestLaneIndex(source, cli.opts);
    if (fs::path(file).extension() == ".cc") {
      const fs::path header = fs::path(file).replace_extension(".h");
      std::error_code ec;
      std::string sibling;
      if (fs::is_regular_file(header, ec) &&
          ReadFile(header.generic_string(), sibling)) {
        HarvestLaneIndex(sibling, cli.opts);
      }
    }
  }

  std::vector<Finding> findings;
  RunTokenMode(files, cli.opts, findings);

  if (!cli.baseline_out.empty()) {
    std::ofstream out(cli.baseline_out);
    if (!out) {
      std::cerr << "kdlint: cannot write baseline " << cli.baseline_out
                << "\n";
      return 2;
    }
    out << "# kdlint baseline - delete entries as they are fixed\n";
    for (const Finding& f : findings) {
      if (!f.suppressed) {
        out << f.file << ":" << f.line << ":" << f.rule << "\n";
      }
    }
  }

  std::size_t unsuppressed = 0;
  std::size_t suppressed = 0;
  for (const Finding& f : findings) {
    (f.suppressed ? suppressed : unsuppressed) += 1;
  }

  if (cli.sarif) {
    // SARIF always carries the suppressed findings too (as SARIF
    // suppressions) so code scanning shows the audited inventory.
    std::cout << ToSarif(findings) << "\n";
  } else if (cli.json) {
    std::cout << "[\n";
    bool first = true;
    for (const Finding& f : findings) {
      if (f.suppressed && !cli.opts.show_suppressed) continue;
      if (!first) std::cout << ",\n";
      first = false;
      std::cout << ToJson(f);
    }
    std::cout << "\n]\n";
  } else {
    for (const Finding& f : findings) {
      if (f.suppressed && !cli.opts.show_suppressed) continue;
      std::cout << f.file << ":" << f.line << ": " << f.rule
                << (f.suppressed ? " [suppressed]" : "") << ": " << f.message
                << "\n";
    }
  }
  std::cerr << "kdlint: " << unsuppressed << " finding"
            << (unsuppressed == 1 ? "" : "s") << " (" << suppressed
            << " suppressed) in " << files.size() << " files [token mode]\n";
  return unsuppressed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace kdlint

int main(int argc, char** argv) { return kdlint::Main(argc, argv); }
