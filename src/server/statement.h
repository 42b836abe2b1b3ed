// The service layer's request language.
//
// Requests are parsed with the existing data-language front-end: the
// `lang` lexer tokenizes each statement and `lang::Parser` parses every
// embedded expression (set right-hand sides, select predicates), so
// literals, arithmetic, builtins and attribute reads all behave exactly
// as they do in rules.
//
// Grammar (keywords case-insensitive, one statement per string; batches
// are split on top-level ';'):
//
//   stmt := "profile" stmt                   run stmt, return its cost JSON
//         | "explain" stmt                   report the plan, no execution
//         | "begin"                          open an explicit transaction
//         | "commit"                         commit it
//         | "abort" | "undo"                 roll it back
//         | "create" CLASS ["as" NAME]       create instance, bind NAME
//         | "delete" target
//         | "set" target "." ATTR "=" expr   expr may read target's attrs
//         | "get" target "." ATTR            evaluating, marks important
//         | "peek" target "." ATTR           non-marking read (auto-commit)
//         | "connect" target "." PORT "to" target "." PORT
//         | "disconnect" target "." PORT "to" target "." PORT
//         | "select" CLASS "where" expr      cursor := matching instances
//         | "instances" CLASS                cursor := instances of CLASS
//         | "members" SUBTYPE                cursor := subtype members
//         | "fetch" [INT]                    next INT ids off the cursor
//         | "health"                         server health JSON (degraded
//                                            state, probe counters); runs
//                                            lock-free so it answers even
//                                            while the storage layer is
//                                            down
//         | "metrics" "history" [GROUP] [INT]  time-series window JSON:
//                                            the last INT sampler ticks
//                                            (default: whole ring),
//                                            series filtered to GROUP
//                                            when given. Lock-free
//                                            (sampler ring only), so it
//                                            answers in degraded mode
//         | "alerts"                         watchdog alert log JSON
//                                            (active rules + bounded
//                                            raise/clear history);
//                                            lock-free likewise
//         | "reorganize" [POLICY]            clustering reorganisation
//                                            (paper 2.3) under the
//                                            exclusive lock; optional
//                                            POLICY (greedy_usage | dstc
//                                            | typegraph) selects the
//                                            cluster::Policy first.
//                                            Returns a JSON summary
//                                            (blocks, fill factor, I/O).
//                                            A mutation: rejected while
//                                            the server is degraded
//
//   target := NAME                           session binding (create ... as)
//           | "obj" "(" INT ")"              raw instance id (shareable
//                                            across sessions; responses
//                                            print instances this way)
//
// Parsing is pure (no database access): it can run on any worker thread
// outside the statement serialization mutex.

#ifndef CACTIS_SERVER_STATEMENT_H_
#define CACTIS_SERVER_STATEMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "lang/ast.h"

namespace cactis::server {

enum class StatementKind {
  kBegin,
  kCommit,
  kAbort,
  kCreate,
  kDelete,
  kSet,
  kGet,
  kPeek,
  kConnect,
  kDisconnect,
  kSelect,
  kInstances,
  kMembers,
  kFetch,
  kHealth,
  kReorganize,
  kMetricsHistory,
  kAlerts,
};

/// An instance reference: a session-local binding name or a raw id.
struct Target {
  std::string name;  // set when the client used a binding
  InstanceId raw;    // set when the client wrote obj(N)
  bool empty() const { return name.empty() && !raw.valid(); }
};

/// Observability wrapper on a statement. `profile` executes the wrapped
/// statement normally and replaces the payload with a JSON document
/// carrying the result plus the statement's StatementCost breakdown.
/// `explain` does not execute at all: it reports how the statement
/// *would* run (attribute kinds, residency, dependents, scheduling
/// policy) from catalog and cache state, with no side effects.
enum class StatementModifier {
  kNone,
  kProfile,
  kExplain,
};

struct Statement {
  StatementModifier modifier = StatementModifier::kNone;
  StatementKind kind = StatementKind::kBegin;
  std::string class_name;  // create / select / instances / members;
                           // metrics history: optional group filter
  std::string binding;     // create ... as NAME
  Target a, b;             // b used by connect / disconnect
  std::string attr_a;      // attribute or port on a
  std::string attr_b;      // port on b
  lang::ExprPtr expr;      // set RHS
  std::string predicate;   // select ... where <source>
  int64_t count = 1;       // fetch N; metrics history N (0 = whole ring)
};

/// True for statements the executor routes through its read path: the
/// lock-free MVCC snapshot first, else the statement mutex (fetch only
/// advances the session cursor). Everything else — including commit,
/// which has its own split-phase path — runs under the mutex directly.
inline bool IsReadOnlyStatement(const Statement& st) {
  // `explain` inspects catalog and cache state the snapshot does not
  // cover; it runs (briefly) under the mutex. `profile` follows its
  // wrapped statement's routing, so profiled reads exercise — and
  // measure — the real concurrent read path.
  if (st.modifier == StatementModifier::kExplain) return false;
  switch (st.kind) {
    case StatementKind::kGet:
    case StatementKind::kPeek:
    case StatementKind::kSelect:
    case StatementKind::kInstances:
    case StatementKind::kMembers:
    case StatementKind::kFetch:
      return true;
    default:
      return false;
  }
}

/// Parses one statement. Pure; thread-safe.
Result<Statement> ParseStatement(std::string_view text);

/// Splits request text into statements on top-level ';' (quote-aware,
/// `--` comments stripped). Empty statements are dropped.
std::vector<std::string> SplitStatements(std::string_view text);

/// Renders an instance id the way targets are written: "obj(N)".
std::string FormatInstance(InstanceId id);

}  // namespace cactis::server

#endif  // CACTIS_SERVER_STATEMENT_H_
