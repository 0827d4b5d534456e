// Minimal C++ token scanner for kdlint's analyzer.
//
// This is not a compiler front end: it produces a flat token stream
// with line numbers, which is all the kdlint rules need. It does get
// the hard lexical cases right — line/block comments, string and char
// literals (including raw strings), preprocessor lines, and line
// continuations — because a rule that misparses a string literal as
// code produces junk findings.
#pragma once

#include <string>
#include <vector>

namespace kdlint {

enum class TokKind {
  kIdent,   // identifiers and keywords
  kNumber,  // numeric literals
  kString,  // string or char literal (text holds the raw literal)
  kPunct,   // single punctuation character
};

struct Token {
  TokKind kind;
  std::string text;
  int line;  // 1-based
};

// Lexes `source` into tokens. Comments and preprocessor directives are
// skipped entirely (suppression comments are handled separately from
// the raw line text, see suppress.h). Never fails: unterminated
// constructs simply end the token stream at end of input.
std::vector<Token> Lex(const std::string& source);

}  // namespace kdlint
