#include "xpath/parser.h"

#include <cctype>

#include "common/string_util.h"

namespace secview {

namespace {

/// Recursive-descent parser over the grammar in the header. Precedence,
/// loosest first: union < slash < qualifier application.
class Parser {
 public:
  Parser(std::string_view input, const XPathParseLimits& limits)
      : input_(input), limits_(limits) {}

  Result<PathPtr> ParsePath() {
    SECVIEW_RETURN_IF_ERROR(CheckInputSize());
    SECVIEW_ASSIGN_OR_RETURN(PathPtr p, ParseUnion());
    SkipWs();
    if (!AtEnd()) {
      return Error("unexpected trailing input");
    }
    return p;
  }

  Result<QualPtr> ParseQualifierOnly() {
    SECVIEW_RETURN_IF_ERROR(CheckInputSize());
    SECVIEW_ASSIGN_OR_RETURN(QualPtr q, ParseQual());
    SkipWs();
    if (!AtEnd()) {
      return Error("unexpected trailing input in qualifier");
    }
    return q;
  }

 private:
  /// Balances depth_ across every exit path of a production. Deepen
  /// adds a level for each extra operand of a left-deep chain ('/',
  /// '//', '|', '[q]', 'and', 'or'), which nests the AST one level
  /// deeper, so max_depth bounds the AST's depth and not just the
  /// parser's recursion.
  struct DepthGuard {
    explicit DepthGuard(Parser* p, size_t levels = 1)
        : p_(p), levels_(levels) {
      p_->depth_ += levels;
    }
    ~DepthGuard() { p_->depth_ -= levels_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Status Deepen() {
      ++levels_;
      ++p_->depth_;
      return p_->CheckDepth();
    }
    Parser* p_;
    size_t levels_;
  };

  Status CheckInputSize() const {
    if (limits_.max_input_bytes != 0 &&
        input_.size() > limits_.max_input_bytes) {
      return Status::OutOfRange(
          "XPath input of " + std::to_string(input_.size()) +
          " bytes exceeds limit of " + std::to_string(limits_.max_input_bytes));
    }
    return Status::OK();
  }

  Status CheckDepth() const {
    if (limits_.max_depth != 0 && depth_ > limits_.max_depth) {
      return Status::OutOfRange(
          "XPath nesting depth exceeds limit of " +
          std::to_string(limits_.max_depth));
    }
    return Status::OK();
  }

  /// Counts one parsed token (step, literal, qualifier atom). Backtracked
  /// tokens stay counted, which only makes the bound more conservative.
  Status CountToken() {
    ++tokens_;
    if (limits_.max_tokens != 0 && tokens_ > limits_.max_tokens) {
      return Status::OutOfRange(
          "XPath token count exceeds limit of " +
          std::to_string(limits_.max_tokens));
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return AtEnd() ? '\0' : input_[pos_]; }
  char PeekAt(size_t k) const {
    return pos_ + k < input_.size() ? input_[pos_ + k] : '\0';
  }
  void SkipWs() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }
  bool Consume(std::string_view token) {
    SkipWs();
    if (input_.substr(pos_).substr(0, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }
  /// Consumes `word` only when it is followed by a non-name character, so
  /// that a step named "android" is not cut at "and".
  bool ConsumeWord(std::string_view word) {
    SkipWs();
    if (input_.substr(pos_).substr(0, word.size()) != word) return false;
    size_t after = pos_ + word.size();
    if (after < input_.size() && IsNameChar(input_[after])) return false;
    pos_ = after;
    return true;
  }
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        "XPath parse error at offset " + std::to_string(pos_) + ": " + what +
        " (input: '" + std::string(input_) + "')");
  }

  Result<std::string> ParseName() {
    SkipWs();
    if (AtEnd() || !IsNameStartChar(Peek())) return Error("expected a name");
    size_t begin = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    return std::string(input_.substr(begin, pos_ - begin));
  }

  /// union := seq ('|' seq)*
  Result<PathPtr> ParseUnion() {
    DepthGuard depth(this);
    SECVIEW_RETURN_IF_ERROR(CheckDepth());
    SECVIEW_ASSIGN_OR_RETURN(PathPtr p, ParseSeq());
    while (Consume("|")) {
      SECVIEW_RETURN_IF_ERROR(depth.Deepen());
      SECVIEW_ASSIGN_OR_RETURN(PathPtr rhs, ParseSeq());
      p = MakeUnion(std::move(p), std::move(rhs));
    }
    return p;
  }

  /// seq := ('//')? step (('//' | '/') step)*
  Result<PathPtr> ParseSeq() {
    SkipWs();
    PathPtr p;
    if (Consume("//")) {
      SECVIEW_ASSIGN_OR_RETURN(PathPtr step, ParseStep());
      p = MakeDescOrSelf(std::move(step));
    } else if (Peek() == '/') {
      return Error("absolute paths are not supported; queries are relative "
                   "to the context node (use '//' or drop the leading '/')");
    } else {
      SECVIEW_ASSIGN_OR_RETURN(p, ParseStep());
    }
    DepthGuard chain(this, 0);
    while (true) {
      SkipWs();
      if (Consume("//")) {
        SECVIEW_RETURN_IF_ERROR(chain.Deepen());
        SECVIEW_ASSIGN_OR_RETURN(PathPtr step, ParseStep());
        p = MakeSlash(std::move(p), MakeDescOrSelf(std::move(step)));
      } else if (Peek() == '/') {
        ++pos_;
        SECVIEW_RETURN_IF_ERROR(chain.Deepen());
        SECVIEW_ASSIGN_OR_RETURN(PathPtr step, ParseStep());
        p = MakeSlash(std::move(p), std::move(step));
      } else {
        return p;
      }
    }
  }

  /// step := primary ('[' qual ']')*
  Result<PathPtr> ParseStep() {
    SECVIEW_ASSIGN_OR_RETURN(PathPtr p, ParsePrimary());
    DepthGuard chain(this, 0);
    while (Consume("[")) {
      SECVIEW_RETURN_IF_ERROR(chain.Deepen());
      SECVIEW_ASSIGN_OR_RETURN(QualPtr q, ParseQual());
      if (!Consume("]")) return Error("expected ']'");
      p = MakeQualified(std::move(p), std::move(q));
    }
    return p;
  }

  /// primary := '.' | '*' | '(' union ')' | name
  Result<PathPtr> ParsePrimary() {
    SECVIEW_RETURN_IF_ERROR(CountToken());
    SkipWs();
    if (Consume("(")) {
      SECVIEW_ASSIGN_OR_RETURN(PathPtr p, ParseUnion());
      if (!Consume(")")) return Error("expected ')'");
      return p;
    }
    if (Consume("*")) return MakeWildcard();
    if (Peek() == '.') {
      ++pos_;
      return MakeEpsilon();
    }
    SECVIEW_ASSIGN_OR_RETURN(std::string name, ParseName());
    return MakeLabel(std::move(name));
  }

  /// qual := and_expr ('or' and_expr)*
  Result<QualPtr> ParseQual() {
    DepthGuard depth(this);
    SECVIEW_RETURN_IF_ERROR(CheckDepth());
    SECVIEW_ASSIGN_OR_RETURN(QualPtr q, ParseQualAnd());
    while (ConsumeWord("or")) {
      SECVIEW_RETURN_IF_ERROR(depth.Deepen());
      SECVIEW_ASSIGN_OR_RETURN(QualPtr rhs, ParseQualAnd());
      q = MakeQualOr(std::move(q), std::move(rhs));
    }
    return q;
  }

  /// and_expr := unary ('and' unary)*
  Result<QualPtr> ParseQualAnd() {
    SECVIEW_ASSIGN_OR_RETURN(QualPtr q, ParseQualUnary());
    DepthGuard chain(this, 0);
    while (ConsumeWord("and")) {
      SECVIEW_RETURN_IF_ERROR(chain.Deepen());
      SECVIEW_ASSIGN_OR_RETURN(QualPtr rhs, ParseQualUnary());
      q = MakeQualAnd(std::move(q), std::move(rhs));
    }
    return q;
  }

  /// unary := 'not(' qual ')' | 'true()' | 'false()' | '(' qual ')'
  ///        | '@'name '=' literal | path ('=' literal)?
  Result<QualPtr> ParseQualUnary() {
    SECVIEW_RETURN_IF_ERROR(CountToken());
    SkipWs();
    if (ConsumeWord("not")) {
      if (!Consume("(")) return Error("expected '(' after not");
      SECVIEW_ASSIGN_OR_RETURN(QualPtr inner, ParseQual());
      if (!Consume(")")) return Error("expected ')' after not(...)");
      return MakeQualNot(std::move(inner));
    }
    if (ConsumeWord("true")) {
      if (!Consume("(") || !Consume(")")) {
        return Error("expected '()' after true");
      }
      return MakeQualTrue();
    }
    if (ConsumeWord("false")) {
      if (!Consume("(") || !Consume(")")) {
        return Error("expected '()' after false");
      }
      return MakeQualFalse();
    }
    if (Peek() == '(') {
      // Could be a parenthesized boolean or a parenthesized path; decide by
      // trying the boolean reading first and backtracking on failure.
      size_t saved = pos_;
      ++pos_;
      Result<QualPtr> inner = ParseQual();
      if (inner.ok() && Consume(")")) {
        // A boolean connective must follow or the whole thing must end;
        // otherwise this was a path prefix like (a | b)/c.
        SkipWs();
        if (AtEnd() || Peek() == ']' || Peek() == ')' ||
            input_.substr(pos_).substr(0, 3) == "and" ||
            input_.substr(pos_).substr(0, 2) == "or") {
          return std::move(inner).value();
        }
      }
      pos_ = saved;
    }
    if (Peek() == '@') {
      ++pos_;
      SECVIEW_ASSIGN_OR_RETURN(std::string attr, ParseName());
      if (!Consume("=")) {
        // Bare @name: attribute-presence test.
        return MakeQualAttrExists(std::move(attr));
      }
      SECVIEW_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      if (lit.is_param) {
        return Error("attribute comparisons do not take $parameters");
      }
      return MakeQualAttrEq(std::move(attr), std::move(lit.text));
    }
    SECVIEW_ASSIGN_OR_RETURN(PathPtr p, ParseUnion());
    SkipWs();
    if (Consume("=")) {
      SECVIEW_ASSIGN_OR_RETURN(Literal lit, ParseLiteral());
      return MakeQualEq(std::move(p), std::move(lit.text), lit.is_param);
    }
    return MakeQualPath(std::move(p));
  }

  struct Literal {
    std::string text;
    bool is_param = false;
  };

  Result<Literal> ParseLiteral() {
    SECVIEW_RETURN_IF_ERROR(CountToken());
    SkipWs();
    if (Peek() == '$') {
      ++pos_;
      SECVIEW_ASSIGN_OR_RETURN(std::string name, ParseName());
      return Literal{std::move(name), /*is_param=*/true};
    }
    char quote = Peek();
    if (quote != '"' && quote != '\'') {
      return Error("expected a quoted string or $parameter");
    }
    ++pos_;
    size_t begin = pos_;
    while (!AtEnd() && Peek() != quote) ++pos_;
    if (AtEnd()) return Error("unterminated string literal");
    std::string text(input_.substr(begin, pos_ - begin));
    ++pos_;
    return Literal{std::move(text), /*is_param=*/false};
  }

  std::string_view input_;
  XPathParseLimits limits_;
  size_t pos_ = 0;
  size_t depth_ = 0;
  size_t tokens_ = 0;
};

}  // namespace

Result<PathPtr> ParseXPath(std::string_view input) {
  return Parser(input, XPathParseLimits{}).ParsePath();
}

Result<PathPtr> ParseXPath(std::string_view input,
                           const XPathParseLimits& limits) {
  return Parser(input, limits).ParsePath();
}

Result<QualPtr> ParseXPathQualifier(std::string_view input) {
  return Parser(input, XPathParseLimits{}).ParseQualifierOnly();
}

Result<QualPtr> ParseXPathQualifier(std::string_view input,
                                    const XPathParseLimits& limits) {
  return Parser(input, limits).ParseQualifierOnly();
}

}  // namespace secview
