// Hand-written C/C++ lexer. Feature extraction (Table I), token
// abstraction, and the RNN token stream all start here.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "lang/token.h"

namespace patchdb::lang {

struct LexOptions {
  bool keep_comments = false;       // drop comments by default
  bool keep_preprocessor = true;    // keep # directives as single tokens
};

/// Tokenize a source fragment. Never throws: unrecognized bytes become
/// kUnknown tokens so dirty patch content cannot break the pipeline.
std::vector<Token> lex(std::string_view source, const LexOptions& options = {});

/// Tokenize `source` onto the end of `tokens`, numbering its lines from
/// `first_line`. Returns false when the input ends inside a token that
/// more input could continue: an unterminated block comment, a
/// directive whose line continuation is the last newline, a string or
/// char literal whose final escape swallows it, or any token cut off
/// without a trailing newline. Lexing newline-terminated pieces one at a
/// time yields exactly lex() of their concatenation (lines offset) as
/// long as every piece but the last returns true.
bool lex_append(std::string_view source, std::vector<Token>& tokens,
                std::size_t first_line = 1, const LexOptions& options = {});

/// Tokenize and return only the token texts (the RNN input form).
std::vector<std::string> lex_texts(std::string_view source,
                                   const LexOptions& options = {});

}  // namespace patchdb::lang
