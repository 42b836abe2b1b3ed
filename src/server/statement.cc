#include "server/statement.h"

#include <algorithm>
#include <cctype>
#include <iterator>

#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/token.h"

namespace cactis::server {

namespace {

using lang::Token;
using lang::TokenType;

/// Small cursor over the token stream (the lang lexer lower-cases
/// identifiers, so verb matching is naturally case-insensitive).
class TokenCursor {
 public:
  explicit TokenCursor(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[std::min(pos_++, Last())]; }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }

  bool MatchIdent(std::string_view word) {
    if (Peek().type == TokenType::kIdentifier && Peek().text == word) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool MatchType(TokenType t) {
    if (Peek().type == t) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError(std::string("expected ") + what);
    }
    return Advance().text;
  }

  Status ExpectType(TokenType t, const char* what) {
    if (!MatchType(t)) {
      return Status::ParseError(std::string("expected ") + what);
    }
    return Status::OK();
  }

  Status ExpectEnd() {
    if (!AtEnd()) {
      return Status::ParseError("trailing input after statement");
    }
    return Status::OK();
  }

 private:
  size_t Last() const { return tokens_.size() - 1; }
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

Result<Target> ParseTarget(TokenCursor* c) {
  auto name = c->ExpectIdent("instance name or obj(N)");
  if (!name.ok()) return name.status();
  Target t;
  if (*name == "obj" && c->MatchType(TokenType::kLParen)) {
    if (c->Peek().type != TokenType::kIntLiteral) {
      return Status::ParseError("expected integer inside obj(...)");
    }
    t.raw = InstanceId(static_cast<uint64_t>(c->Advance().int_value));
    CACTIS_RETURN_IF_ERROR(c->ExpectType(TokenType::kRParen, "')'"));
  } else {
    t.name = *name;
  }
  return t;
}

/// target "." attr
Status ParseTargetDotAttr(TokenCursor* c, Target* t, std::string* attr) {
  auto target = ParseTarget(c);
  if (!target.ok()) return target.status();
  *t = *target;
  CACTIS_RETURN_IF_ERROR(c->ExpectType(TokenType::kDot, "'.'"));
  auto a = c->ExpectIdent("attribute name");
  if (!a.ok()) return a.status();
  *attr = *a;
  return Status::OK();
}

/// The RHS of `set` / the predicate of `select where` is everything after
/// the delimiter in the raw text; re-parsed with the lang expression
/// parser so it gets the full expression grammar.
Result<std::string> TailAfter(std::string_view text, char delimiter) {
  size_t pos = text.find(delimiter);
  if (pos == std::string_view::npos) {
    return Status::ParseError(std::string("expected '") + delimiter + "'");
  }
  return std::string(text.substr(pos + 1));
}

/// Tail after the first whole word `word` (used for `where`; the only
/// tokens before it are `select` and the class identifier, so the first
/// word match is the keyword).
Result<std::string> TailAfterWord(std::string_view text,
                                  std::string_view word) {
  for (size_t i = 0; i + word.size() <= text.size(); ++i) {
    bool left_ok = i == 0 || !std::isalnum(static_cast<unsigned char>(
                                 text[i - 1]));
    size_t end = i + word.size();
    bool right_ok =
        end == text.size() ||
        !std::isalnum(static_cast<unsigned char>(text[end]));
    if (left_ok && right_ok) {
      std::string_view cand = text.substr(i, word.size());
      bool eq = std::equal(cand.begin(), cand.end(), word.begin(),
                           [](char a, char b) {
                             return std::tolower(static_cast<unsigned char>(
                                        a)) == b;
                           });
      if (eq) return std::string(text.substr(end));
    }
  }
  return Status::ParseError(std::string("expected '") + std::string(word) +
                            "'");
}

using Route = StatementRoute;

// One row per StatementKind, in enum order.
constexpr StatementKindInfo kKinds[] = {
    {StatementKind::kBegin, "begin", Route::kWrite},
    {StatementKind::kCommit, "commit", Route::kCommit},
    {StatementKind::kAbort, "abort", Route::kRollback},
    {StatementKind::kCreate, "create", Route::kWrite},
    {StatementKind::kDelete, "delete", Route::kWrite},
    {StatementKind::kSet, "set", Route::kWrite},
    {StatementKind::kGet, "get", Route::kRead},
    {StatementKind::kPeek, "peek", Route::kRead},
    {StatementKind::kConnect, "connect", Route::kWrite},
    {StatementKind::kDisconnect, "disconnect", Route::kWrite},
    {StatementKind::kSelect, "select", Route::kRead},
    {StatementKind::kInstances, "instances", Route::kRead},
    {StatementKind::kMembers, "members", Route::kRead},
    {StatementKind::kFetch, "fetch", Route::kCursor},
    {StatementKind::kHealth, "health", Route::kServerState},
    {StatementKind::kReorganize, "reorganize", Route::kWrite},
    {StatementKind::kMetricsHistory, "metrics history", Route::kServerState},
    {StatementKind::kAlerts, "alerts", Route::kServerState},
};
constexpr bool RowsInKindOrder() {
  for (size_t i = 0; i < std::size(kKinds); ++i) {
    if (kKinds[i].kind != static_cast<StatementKind>(i)) return false;
  }
  return std::size(kKinds) == static_cast<size_t>(StatementKind::kAlerts) + 1;
}
static_assert(RowsInKindOrder(), "one kKinds row per StatementKind, in order");

}  // namespace

std::string FormatInstance(InstanceId id) {
  return "obj(" + std::to_string(id.value) + ")";
}

const StatementKindInfo& KindInfo(StatementKind kind) {
  return kKinds[static_cast<size_t>(kind)];
}

bool IsMutation(const Statement& st) {
  const Route route = KindInfo(st.kind).route;
  return st.modifier != StatementModifier::kExplain &&
         (route == Route::kCommit || route == Route::kWrite);
}

Result<Statement> ParseStatement(std::string_view text) {
  lang::Lexer lexer(text);
  auto tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  TokenCursor c(std::move(*tokens));

  Statement st;

  // Observability modifiers wrap a whole statement. Strip the verb off
  // the *raw text* and re-parse the remainder, because several statement
  // forms (set RHS, select predicates) re-scan their own raw text.
  if (c.Peek().type == TokenType::kIdentifier &&
      (c.Peek().text == "profile" || c.Peek().text == "explain")) {
    const bool is_profile = c.Peek().text == "profile";
    size_t start = text.find_first_not_of(" \t\r\n");
    auto inner = ParseStatement(text.substr(start + 7));  // both verbs: 7 chars
    if (!inner.ok()) return inner.status();
    if (inner->modifier != StatementModifier::kNone) {
      return Status::ParseError(
          "profile/explain cannot wrap another profile/explain");
    }
    inner->modifier = is_profile ? StatementModifier::kProfile
                                 : StatementModifier::kExplain;
    return inner;
  }

  // Transaction control verbs. `begin` is a lang keyword; the rest are
  // plain identifiers.
  if (c.MatchType(TokenType::kKwBegin)) {
    st.kind = StatementKind::kBegin;
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }
  if (c.MatchIdent("commit")) {
    st.kind = StatementKind::kCommit;
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }
  if (c.MatchIdent("abort") || c.MatchIdent("undo")) {
    st.kind = StatementKind::kAbort;
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("create")) {
    st.kind = StatementKind::kCreate;
    auto cls = c.ExpectIdent("class name");
    if (!cls.ok()) return cls.status();
    st.class_name = *cls;
    if (c.MatchIdent("as")) {
      auto name = c.ExpectIdent("binding name");
      if (!name.ok()) return name.status();
      st.binding = *name;
    }
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("delete")) {
    st.kind = StatementKind::kDelete;
    auto t = ParseTarget(&c);
    if (!t.ok()) return t.status();
    st.a = *t;
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("set")) {
    st.kind = StatementKind::kSet;
    CACTIS_RETURN_IF_ERROR(ParseTargetDotAttr(&c, &st.a, &st.attr_a));
    CACTIS_RETURN_IF_ERROR(c.ExpectType(TokenType::kAssign, "'='"));
    // Everything after the first '=' is the expression (the prefix —
    // verb, target, attribute — cannot contain one).
    auto rhs = TailAfter(text, '=');
    if (!rhs.ok()) return rhs.status();
    auto expr = lang::Parser::ParseExpression(*rhs);
    if (!expr.ok()) return expr.status();
    st.expr = *expr;
    return st;
  }

  if (c.Peek().type == TokenType::kIdentifier &&
      (c.Peek().text == "get" || c.Peek().text == "peek")) {
    st.kind = c.Advance().text == "peek" ? StatementKind::kPeek
                                         : StatementKind::kGet;
    CACTIS_RETURN_IF_ERROR(ParseTargetDotAttr(&c, &st.a, &st.attr_a));
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.Peek().type == TokenType::kIdentifier &&
      (c.Peek().text == "connect" || c.Peek().text == "disconnect")) {
    st.kind = c.Advance().text == "disconnect" ? StatementKind::kDisconnect
                                               : StatementKind::kConnect;
    CACTIS_RETURN_IF_ERROR(ParseTargetDotAttr(&c, &st.a, &st.attr_a));
    // `to` is a lang keyword (For Each ... Related To).
    CACTIS_RETURN_IF_ERROR(c.ExpectType(TokenType::kKwTo, "'to'"));
    CACTIS_RETURN_IF_ERROR(ParseTargetDotAttr(&c, &st.b, &st.attr_b));
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("select")) {
    st.kind = StatementKind::kSelect;
    auto cls = c.ExpectIdent("class name");
    if (!cls.ok()) return cls.status();
    st.class_name = *cls;
    CACTIS_RETURN_IF_ERROR(c.ExpectType(TokenType::kKwWhere, "'where'"));
    auto pred = TailAfterWord(text, "where");
    if (!pred.ok()) return pred.status();
    // Validate the predicate now so parse errors surface at the
    // statement, not buried inside execution.
    auto parsed = lang::Parser::ParseExpression(*pred);
    if (!parsed.ok()) return parsed.status();
    st.predicate = *pred;
    return st;
  }

  if (c.MatchIdent("instances")) {
    st.kind = StatementKind::kInstances;
    auto cls = c.ExpectIdent("class name");
    if (!cls.ok()) return cls.status();
    st.class_name = *cls;
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("members")) {
    st.kind = StatementKind::kMembers;
    auto sub = c.ExpectIdent("subtype name");
    if (!sub.ok()) return sub.status();
    st.class_name = *sub;
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("health")) {
    st.kind = StatementKind::kHealth;
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("metrics")) {
    if (!c.MatchIdent("history")) {
      return Status::ParseError("expected 'history' after 'metrics'");
    }
    st.kind = StatementKind::kMetricsHistory;
    st.count = 0;  // whole ring unless narrowed below
    // Optional group filter, then optional sample count; validated at
    // execution like the reorganize policy (group names are not part of
    // the token language).
    if (c.Peek().type == TokenType::kIdentifier) {
      st.class_name = c.Advance().text;
    }
    if (c.Peek().type == TokenType::kIntLiteral) {
      st.count = c.Advance().int_value;
      if (st.count <= 0) {
        return Status::ParseError("metrics history count must be positive");
      }
    }
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("alerts")) {
    st.kind = StatementKind::kAlerts;
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("reorganize") || c.MatchIdent("reorg")) {
    st.kind = StatementKind::kReorganize;
    // Optional clustering-policy name; validated at execution (the parser
    // stays pure and policy names are not part of the token language).
    if (c.Peek().type == TokenType::kIdentifier) {
      st.class_name = c.Advance().text;
    }
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.MatchIdent("fetch")) {
    st.kind = StatementKind::kFetch;
    st.count = 1;
    if (c.Peek().type == TokenType::kIntLiteral) {
      st.count = c.Advance().int_value;
      if (st.count <= 0) {
        return Status::ParseError("fetch count must be positive");
      }
    }
    CACTIS_RETURN_IF_ERROR(c.ExpectEnd());
    return st;
  }

  if (c.AtEnd()) return Status::ParseError("empty statement");
  return Status::ParseError("unknown statement verb '" + c.Peek().text +
                            "'");
}

std::vector<std::string> SplitStatements(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  bool in_string = false;
  auto flush = [&] {
    size_t b = current.find_first_not_of(" \t\r\n");
    if (b != std::string::npos) {
      size_t e = current.find_last_not_of(" \t\r\n");
      out.push_back(current.substr(b, e - b + 1));
    }
    current.clear();
  };
  for (size_t i = 0; i < text.size(); ++i) {
    char ch = text[i];
    if (in_string) {
      current += ch;
      if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') {
      in_string = true;
      current += ch;
      continue;
    }
    // `--` comment: skip to end of line.
    if (ch == '-' && i + 1 < text.size() && text[i + 1] == '-') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (ch == ';' || ch == '\n') {
      flush();
      continue;
    }
    current += ch;
  }
  flush();
  return out;
}

}  // namespace cactis::server
