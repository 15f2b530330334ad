#include "xpath/printer.h"

namespace secview {

namespace {

void PrintPath(const PathPtr& p, std::string& out);
void PrintQual(const QualPtr& q, std::string& out);

/// True iff `p` can stand as a single step (no parens needed before '['
/// or inside a '/' chain).
bool IsStepLike(const PathPtr& p) {
  switch (p->kind) {
    case PathKind::kLabel:
    case PathKind::kWildcard:
    case PathKind::kEpsilon:
    case PathKind::kQualified:
    case PathKind::kEmptySet:
      return true;
    default:
      return false;
  }
}

void PrintParenthesized(const PathPtr& p, std::string& out) {
  if (IsStepLike(p)) {
    PrintPath(p, out);
  } else {
    out += '(';
    PrintPath(p, out);
    out += ')';
  }
}

/// Prints an operand of '/' — anything but a union can appear bare.
void PrintSlashOperand(const PathPtr& p, std::string& out) {
  if (p->kind == PathKind::kUnion) {
    out += '(';
    PrintPath(p, out);
    out += ')';
  } else {
    PrintPath(p, out);
  }
}

void PrintPath(const PathPtr& p, std::string& out) {
  switch (p->kind) {
    case PathKind::kEmptySet:
      // No concrete-syntax literal exists; '.[false()]' simplifies back to
      // the empty set when re-parsed.
      out += ".[false()]";
      return;
    case PathKind::kEpsilon:
      out += '.';
      return;
    case PathKind::kLabel:
      out += p->label;
      return;
    case PathKind::kWildcard:
      out += '*';
      return;
    case PathKind::kSlash:
      PrintSlashOperand(p->left, out);
      if (p->right->kind == PathKind::kDescOrSelf) {
        // p1/(//p2) prints as p1//p2.
        out += "//";
        PrintParenthesized(p->right->left, out);
      } else {
        out += '/';
        PrintSlashOperand(p->right, out);
      }
      return;
    case PathKind::kDescOrSelf:
      out += "//";
      PrintParenthesized(p->left, out);
      return;
    case PathKind::kUnion:
      PrintPath(p->left, out);
      out += " | ";
      PrintPath(p->right, out);
      return;
    case PathKind::kQualified:
      PrintParenthesized(p->left, out);
      out += '[';
      PrintQual(p->qualifier, out);
      out += ']';
      return;
  }
}

/// True iff `q` binds at least as tightly as 'and' (no parens needed as an
/// 'and' operand).
bool IsAtomicQual(const QualPtr& q) {
  switch (q->kind) {
    case QualKind::kAnd:
    case QualKind::kOr:
      return false;
    default:
      return true;
  }
}

void PrintQualAndOperand(const QualPtr& q, std::string& out) {
  if (IsAtomicQual(q) || q->kind == QualKind::kAnd) {
    PrintQual(q, out);
  } else {
    out += '(';
    PrintQual(q, out);
    out += ')';
  }
}

void PrintQual(const QualPtr& q, std::string& out) {
  switch (q->kind) {
    case QualKind::kTrue:
      out += "true()";
      return;
    case QualKind::kFalse:
      out += "false()";
      return;
    case QualKind::kPath:
      PrintPath(q->path, out);
      return;
    case QualKind::kPathEqConst:
      PrintSlashOperand(q->path, out);
      out += " = ";
      if (q->is_param) {
        out += '$';
        out += q->constant;
      } else {
        out += '"';
        out += q->constant;
        out += '"';
      }
      return;
    case QualKind::kAttrExists:
      out += '@';
      out += q->attr;
      return;
    case QualKind::kAttrEq:
      out += '@';
      out += q->attr;
      out += " = \"";
      out += q->constant;
      out += '"';
      return;
    case QualKind::kAnd:
      PrintQualAndOperand(q->left, out);
      out += " and ";
      PrintQualAndOperand(q->right, out);
      return;
    case QualKind::kOr:
      PrintQual(q->left, out);
      out += " or ";
      PrintQual(q->right, out);
      return;
    case QualKind::kNot:
      out += "not(";
      PrintQual(q->left, out);
      out += ')';
      return;
  }
}

}  // namespace

std::string ToXPathString(const PathPtr& p) {
  std::string out;
  if (p) PrintPath(p, out);
  return out;
}

std::string ToXPathString(const QualPtr& q) {
  std::string out;
  if (q) PrintQual(q, out);
  return out;
}

std::string ToXPathString(
    const PathPtr& p,
    const std::vector<std::pair<std::string, std::string>>& bindings) {
  return ToXPathString(BindParams(p, bindings));
}

}  // namespace secview
