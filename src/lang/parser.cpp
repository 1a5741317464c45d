#include "lang/parser.h"

#include <algorithm>

#include "lang/lexer.h"

namespace patchdb::lang {

namespace {

/// Index of the token matching an opening bracket at `open_index`, or
/// npos when unbalanced. `open`/`close` are single-char punctuators.
std::size_t match_bracket(const std::vector<Token>& tokens, std::size_t open_index,
                          std::string_view open, std::string_view close) {
  std::size_t depth = 0;
  for (std::size_t i = open_index; i < tokens.size(); ++i) {
    if (tokens[i].text == open) {
      ++depth;
    } else if (tokens[i].text == close) {
      if (--depth == 0) return i;
    }
  }
  return static_cast<std::size_t>(-1);
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// End (token index) of the statement starting at `start`: for a braced
/// block, the matching '}'; otherwise the terminating ';'. Handles a
/// nested if/for/while chain by skipping over its parenthesized head.
std::size_t statement_end(const std::vector<Token>& tokens, std::size_t start) {
  if (start >= tokens.size()) return kNpos;
  if (tokens[start].text == "{") {
    return match_bracket(tokens, start, "{", "}");
  }
  std::size_t i = start;
  std::size_t brace_depth = 0;
  std::size_t paren_depth = 0;
  while (i < tokens.size()) {
    const std::string& text = tokens[i].text;
    if (text == "(") ++paren_depth;
    else if (text == ")") { if (paren_depth > 0) --paren_depth; }
    else if (text == "{") ++brace_depth;
    else if (text == "}") {
      if (brace_depth == 0) return i > start ? i - 1 : start;  // ill-formed
      if (--brace_depth == 0 && paren_depth == 0) {
        // A `if (...) { ... }` nested inside an unbraced body ends it
        // only if no `;` is required — treat the '}' as a candidate end
        // unless an `else` follows.
        if (i + 1 < tokens.size() && tokens[i + 1].text == "else") {
          ++i;
          continue;
        }
        return i;
      }
    } else if (text == ";" && brace_depth == 0 && paren_depth == 0) {
      return i;
    }
    ++i;
  }
  return tokens.empty() ? kNpos : tokens.size() - 1;
}

}  // namespace

std::vector<FunctionInfo> find_functions(const std::vector<Token>& tokens) {
  std::vector<FunctionInfo> functions;
  // Function definitions: `name ( ... ) {` at brace depth 0, where the
  // matching ')' is directly followed by '{' (ignoring common attributes
  // is out of scope for generated corpora).
  std::size_t depth = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.text == "{") {
      ++depth;
      continue;
    }
    if (t.text == "}") {
      if (depth > 0) --depth;
      continue;
    }
    if (depth != 0 || t.kind != TokenKind::kIdentifier) continue;
    if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;
    // Must look like a definition, not a call: previous token is a type
    // name, '*' or a keyword (static/int/void...).
    if (i == 0) continue;
    const Token& prev = tokens[i - 1];
    const bool type_like = prev.kind == TokenKind::kKeyword ||
                           prev.kind == TokenKind::kIdentifier || prev.text == "*";
    if (!type_like) continue;
    const std::size_t close = match_bracket(tokens, i + 1, "(", ")");
    if (close == kNpos || close + 1 >= tokens.size()) continue;
    if (tokens[close + 1].text != "{") continue;
    const std::size_t body_end = match_bracket(tokens, close + 1, "{", "}");
    if (body_end == kNpos) continue;

    FunctionInfo fn;
    fn.name = t.text;
    fn.signature_line = t.line;
    fn.body_begin_line = tokens[close + 1].line;
    fn.body_end_line = tokens[body_end].line;
    functions.push_back(std::move(fn));
    // Note: we do not skip past the body; parse_source finds nested ifs
    // and loops with separate passes over the whole token stream.
  }
  return functions;
}

ParsedFile parse_source(std::string_view source) {
  ParsedFile out;
  const std::vector<Token> tokens = lex(source);
  out.functions = find_functions(tokens);

  // --- if statements and loops.
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind != TokenKind::kKeyword) continue;
    if (t.text == "for" || t.text == "while" || t.text == "do") {
      out.loop_lines.push_back(t.line);
      continue;
    }
    if (t.text != "if") continue;

    IfStatementInfo info;
    info.if_line = t.line;
    // `else if` chains produce their own `if` token — fine, each is a
    // separate IfStatementInfo, matching clang's nested IfStmt nodes.
    std::size_t open = i + 1;
    // `if constexpr (...)`
    if (open < tokens.size() && tokens[open].text == "constexpr") ++open;
    if (open >= tokens.size() || tokens[open].text != "(") continue;
    const std::size_t close = match_bracket(tokens, open, "(", ")");
    if (close == kNpos) continue;
    info.cond_begin_line = tokens[open].line;
    info.cond_end_line = tokens[close].line;
    for (std::size_t j = open + 1; j < close; ++j) {
      if (!info.condition.empty()) info.condition += ' ';
      info.condition += tokens[j].text;
    }

    std::size_t body_start = close + 1;
    if (body_start >= tokens.size()) continue;
    info.braced = tokens[body_start].text == "{";
    std::size_t end = statement_end(tokens, body_start);
    if (end == kNpos) continue;

    // else branch (and else-if chains) extend the statement.
    while (end + 1 < tokens.size() && tokens[end + 1].text == "else") {
      info.has_else = true;
      std::size_t else_body = end + 2;
      if (else_body < tokens.size() && tokens[else_body].text == "if") {
        // skip the `if (...)` head, then its body
        std::size_t nested_open = else_body + 1;
        if (nested_open < tokens.size() && tokens[nested_open].text == "constexpr") {
          ++nested_open;
        }
        if (nested_open >= tokens.size() || tokens[nested_open].text != "(") break;
        const std::size_t nested_close = match_bracket(tokens, nested_open, "(", ")");
        if (nested_close == kNpos) break;
        else_body = nested_close + 1;
      }
      const std::size_t else_end = statement_end(tokens, else_body);
      if (else_end == kNpos) break;
      end = else_end;
    }
    info.stmt_end_line = tokens[end].line;
    out.ifs.push_back(std::move(info));
  }
  return out;
}

ParsedFile parse_file(const std::vector<std::string>& lines) {
  std::string source;
  std::size_t total = 0;
  for (const std::string& l : lines) total += l.size() + 1;
  source.reserve(total);
  for (const std::string& l : lines) {
    source += l;
    source += '\n';
  }
  return parse_source(source);
}

const FunctionInfo* enclosing_function(const ParsedFile& parsed, std::size_t line) {
  const FunctionInfo* best = nullptr;
  for (const FunctionInfo& fn : parsed.functions) {
    if (!fn.contains_line(line)) continue;
    // Innermost = smallest extent.
    if (best == nullptr ||
        fn.body_end_line - fn.signature_line < best->body_end_line - best->signature_line) {
      best = &fn;
    }
  }
  return best;
}

std::vector<const IfStatementInfo*> ifs_touching(const ParsedFile& parsed,
                                                 std::size_t first,
                                                 std::size_t last) {
  std::vector<const IfStatementInfo*> out;
  for (const IfStatementInfo& info : parsed.ifs) {
    if (info.if_line <= last && info.stmt_end_line >= first) out.push_back(&info);
  }
  return out;
}

}  // namespace patchdb::lang
