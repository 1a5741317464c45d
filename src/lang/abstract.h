// Token abstraction: map identifiers and literals onto canonical symbols
// so that two hunks that differ only in naming compare as equal. Table I
// computes the hunk-level Levenshtein features twice — "before token
// abstraction" and "after token abstraction" — and counts identical
// hunks under both views (features 49-56).
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "lang/token.h"

namespace patchdb::lang {

struct AbstractOptions {
  // When true, identifiers that look like function calls (followed by a
  // '(') get the distinct symbol FUNC instead of ID, preserving the
  // call structure of the code.
  bool distinguish_calls = true;
};

/// Abstract a token sequence in order: identifiers -> "ID"/"FUNC",
/// numbers -> "NUM", strings -> "STR", char literals -> "CHR"; keywords,
/// operators and punctuation unchanged; comments/preprocessor dropped.
/// Replaces `out` with the symbols joined by single spaces.
void abstract_tokens(std::span<const Token> tokens, std::string& out,
                     const AbstractOptions& options = {});

/// Lex then abstract, returning one space-joined canonical string. This
/// is the "after token abstraction" text used for the Levenshtein
/// features and same-hunk detection.
std::string abstract_code(std::string_view source,
                          const AbstractOptions& options = {});

/// Alpha-renaming abstraction: identifiers map to V1, V2, ... in first-
/// occurrence order (consistently within the fragment), literals to
/// NUM/STR/CHR. Unlike abstract_code this preserves which positions
/// share an identifier — `f(a, a)` and `f(a, b)` stay distinct — which
/// is what near-duplicate fingerprinting needs.
std::string alpha_abstract_code(std::string_view source);

}  // namespace patchdb::lang
