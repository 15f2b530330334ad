#ifndef SECVIEW_XPATH_PRINTER_H_
#define SECVIEW_XPATH_PRINTER_H_

#include <string>
#include <utility>
#include <vector>

#include "xpath/ast.h"

namespace secview {

/// Renders a path expression in the concrete syntax accepted by
/// ParseXPath. Parentheses are inserted exactly where precedence demands
/// (union under slash, composite steps under qualifiers), so
/// ParseXPath(ToXPathString(p)) accepts every printable expression and
/// yields a semantically equivalent one.
std::string ToXPathString(const PathPtr& p);

/// Renders a qualifier (without the surrounding brackets).
std::string ToXPathString(const QualPtr& q);

/// Renders `p` with `bindings` applied by BindParams, as audit lines and
/// the CLI show the evaluated query; the VM itself builds no such tree.
std::string ToXPathString(
    const PathPtr& p,
    const std::vector<std::pair<std::string, std::string>>& bindings);

}  // namespace secview

#endif  // SECVIEW_XPATH_PRINTER_H_
