#ifndef SECVIEW_XPATH_PARSER_H_
#define SECVIEW_XPATH_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xpath/ast.h"

namespace secview {

/// Parses an XPath expression in the paper's fragment C (Section 2):
///
///   p ::= '.' | name | '*' | p '/' p | '//' p | p '|' p | p '[' q ']'
///   q ::= p | p '=' literal | q 'and' q | q 'or' q | 'not(' q ')'
///         | 'true()' | 'false()' | '@'name '=' literal
///   literal ::= '"'chars'"' | "'"chars"'" | '$'name
///
/// `$name` literals are query parameters (the paper's $wardNo); bind them
/// with BindParams() before evaluation. Expressions are relative to the
/// context node; a leading '//' is allowed, a leading single '/' is not
/// (the library evaluates queries at the root element, so absolute paths
/// are expressed by omitting the root step).

/// Hostile-input hardening limits for the recursive-descent parser.
/// Queries come from untrusted users, so the defaults are *on*: a 10 MB
/// query string or a qualifier nested a thousand parentheses deep is
/// rejected with kOutOfRange instead of exhausting the stack or heap.
/// Zero means unlimited for any individual field (restoring the
/// pre-hardening behavior); all defaults are far beyond what any
/// legitimate query in the paper's fragment needs.
struct XPathParseLimits {
  /// Maximum query text length in bytes.
  size_t max_input_bytes = 1 << 20;
  /// Maximum nesting depth: each parenthesis, qualifier and not(...)
  /// nests one level, and so does each extra operand of a left-deep
  /// chain ('/', '//', '|', '[q]', 'and', 'or'). Bounds the parser's
  /// recursion and the depth of the resulting AST, which the rewriter,
  /// printer and destructors walk recursively.
  size_t max_depth = 256;
  /// Maximum number of tokens (steps, literals, operators) parsed:
  /// bounds the AST node count.
  size_t max_tokens = 262144;
};

Result<PathPtr> ParseXPath(std::string_view input);
Result<PathPtr> ParseXPath(std::string_view input,
                           const XPathParseLimits& limits);

/// Parses a bare qualifier (the part between '[' and ']').
Result<QualPtr> ParseXPathQualifier(std::string_view input);
Result<QualPtr> ParseXPathQualifier(std::string_view input,
                                    const XPathParseLimits& limits);

}  // namespace secview

#endif  // SECVIEW_XPATH_PARSER_H_
