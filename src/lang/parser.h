// Lightweight statement-level parser: the stand-in for the LLVM AST
// pass in Section III-C of the paper. The synthesizer needs, for each
// file version, (a) function boundaries and (b) the extents of `if`
// statements — start line, end line, and the span of the condition —
// which is exactly the `IfStmt <line:N, line:N>` information the paper
// reads from clang ASTs. We recover it with a brace/paren matcher over
// the token stream, which is robust on incomplete or macro-heavy code.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "lang/token.h"

namespace patchdb::lang {

/// A function definition found in a file.
struct FunctionInfo {
  std::string name;
  std::size_t signature_line = 0;  // line of the name token (1-based)
  std::size_t body_begin_line = 0; // line of the '{'
  std::size_t body_end_line = 0;   // line of the matching '}'

  bool contains_line(std::size_t line) const noexcept {
    return line >= signature_line && line <= body_end_line;
  }
};

/// An `if` statement found in a file.
struct IfStatementInfo {
  std::size_t if_line = 0;          // line of the `if` keyword
  std::size_t cond_begin_line = 0;  // line of '('
  std::size_t cond_end_line = 0;    // line of matching ')'
  std::size_t stmt_end_line = 0;    // last line of the controlled statement
                                    // (matching '}' or the ';' of a bare stmt)
  std::string condition;            // condition text, single-spaced tokens
  bool has_else = false;
  bool braced = false;              // body wrapped in { }

  bool touches_line(std::size_t line) const noexcept {
    return line >= if_line && line <= stmt_end_line;
  }
};

struct ParsedFile {
  std::vector<FunctionInfo> functions;
  std::vector<IfStatementInfo> ifs;
  std::vector<std::size_t> loop_lines;  // lines holding for/while/do keywords
};

/// Parse a whole file given as lines (the form file stores keep).
ParsedFile parse_file(const std::vector<std::string>& lines);

/// Parse a file given as one string.
ParsedFile parse_source(std::string_view source);

/// The function definitions of an already-lexed file (lex() with default
/// options) — parse_source's `functions`, without re-lexing.
std::vector<FunctionInfo> find_functions(const std::vector<Token>& tokens);

/// Find the innermost function containing `line`, if any.
const FunctionInfo* enclosing_function(const ParsedFile& parsed, std::size_t line);

/// Find every `if` statement whose extent intersects [first, last].
std::vector<const IfStatementInfo*> ifs_touching(const ParsedFile& parsed,
                                                 std::size_t first,
                                                 std::size_t last);

}  // namespace patchdb::lang
