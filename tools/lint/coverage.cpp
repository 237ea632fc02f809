// Cross-file protocol-coverage rules: structural proofs over the proc
// dispatch, the consistency machinery, and the trace-event tables. Where the
// TraceChecker observes at runtime that invalidations happened, these rules
// prove at lint time that the code paths which produce them exist:
//
//   proc-coverage        every nfs3::Proc is registered in ProxyServer's
//                        kProcs table and classified in Classify(); every
//                        GvfsProc has a RegisterHandler call in src/gvfs/.
//   stats-name-coverage  every proc has a ProcName / GvfsProcName case, so
//                        per-proc RPC stats and trace labels never collapse
//                        into "UNKNOWN".
//   inv-coverage         every proc the NFS protocol defines as mutating is
//                        classified mutating, and the mutating path appends
//                        to the invalidation log (RecordInvalidation ->
//                        InvLog::Append -> push_back). The fleet aggregation
//                        tier is held to the same bar: Ingest() must append
//                        to its log too.
//   trace-coverage       the append is traced per client (kInvAppend /
//                        kAggFanout in InvLog::Append, kAggIngest in the
//                        aggregation tier), and every trace::EventType has an
//                        EventTypeName entry.
//   migrate-coverage     HandleMigrate() recalls conflicts and drains the
//                        caller's owed invalidation (InvLog::Drain, which
//                        releases the entry and traces kInvPoll); the client
//                        flushes and drops its delegation before a MIGRATE.
//   anomaly-coverage     every obs::AnomalyKind is registered in kDetectors,
//                        named by AnomalyKindName, and given a remedy by the
//                        doctor's VerdictFor — detectors stay actionable
//                        from the online firing to the offline post-mortem.
//
// All parsing is over the lexer's token stream; the helpers below understand
// just enough C++ structure (enum bodies, function bodies, case labels) to
// anchor the checks. A rule whose anchor files are absent from the scanned
// tree passes silently, so gvfs-lint stays usable on partial trees and on
// the test fixtures.
#include <algorithm>
#include <array>
#include <set>
#include <string_view>

#include "lint.h"

namespace gvfs::lint {

namespace {

bool Is(const Token& t, std::string_view text) { return t.text == text; }

bool IsIdent(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

/// Looks a file up by rel_path suffix (so fixture trees can live anywhere
/// under the scan root).
const FileUnit* FindUnit(const Tree& tree, std::string_view suffix) {
  for (const auto& [rel, unit] : tree) {
    if (rel.size() >= suffix.size() &&
        rel.compare(rel.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return &unit;
    }
  }
  return nullptr;
}

/// Half-open token range [begin, end) into a file's token stream.
struct Span {
  const std::vector<Token>* toks = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  int line = 0;  // line of the anchor (enum name / function name)

  bool ok() const { return toks != nullptr; }
};

/// Enumerator names of `enum [class] <name> [: type] { ... }`.
std::vector<std::string> EnumValues(const Lexed& lex, std::string_view name,
                                    int* line_out) {
  const auto& toks = lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], "enum")) continue;
    std::size_t j = i + 1;
    if (j < toks.size() &&
        (IsIdent(toks[j], "class") || IsIdent(toks[j], "struct"))) {
      ++j;
    }
    if (j >= toks.size() || !IsIdent(toks[j], name)) continue;
    if (line_out != nullptr) *line_out = toks[j].line;
    while (j < toks.size() && !Is(toks[j], "{")) {
      if (Is(toks[j], ";")) break;  // forward declaration
      ++j;
    }
    if (j >= toks.size() || !Is(toks[j], "{")) continue;
    std::vector<std::string> values;
    ++j;
    while (j < toks.size() && !Is(toks[j], "}")) {
      if (toks[j].kind == TokKind::kIdent) {
        values.push_back(toks[j].text);
        // Skip the initializer (if any) up to the comma or closing brace.
        int depth = 0;
        while (j < toks.size()) {
          if (Is(toks[j], "(") || Is(toks[j], "{")) ++depth;
          if (Is(toks[j], ")") || (depth > 0 && Is(toks[j], "}"))) --depth;
          if (depth == 0 && (Is(toks[j], ",") || Is(toks[j], "}"))) break;
          ++j;
        }
        if (j < toks.size() && Is(toks[j], "}")) break;
      }
      ++j;
    }
    return values;
  }
  return {};
}

/// Body of the first *definition* of `name` (a call or declaration — name,
/// parens, then `;` — is skipped; a definition reaches `{`).
Span FunctionBody(const Lexed& lex, std::string_view name) {
  const auto& toks = lex.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!IsIdent(toks[i], name) || !Is(toks[i + 1], "(")) continue;
    // Match the parameter list.
    std::size_t j = i + 1;
    int parens = 0;
    for (; j < toks.size(); ++j) {
      if (Is(toks[j], "(")) ++parens;
      if (Is(toks[j], ")") && --parens == 0) break;
    }
    if (j >= toks.size()) return {};
    // Scan to the body, bailing at `;` (declaration / call statement).
    ++j;
    bool is_definition = false;
    for (; j < toks.size(); ++j) {
      if (Is(toks[j], ";") || Is(toks[j], ",") || Is(toks[j], ")")) break;
      if (Is(toks[j], "{")) {
        is_definition = true;
        break;
      }
    }
    if (!is_definition) continue;
    Span body;
    body.toks = &toks;
    body.begin = j + 1;
    body.line = toks[i].line;
    int braces = 1;
    for (++j; j < toks.size(); ++j) {
      if (Is(toks[j], "{")) ++braces;
      if (Is(toks[j], "}") && --braces == 0) break;
    }
    body.end = j;
    return body;
  }
  return {};
}

bool SpanContains(const Span& span, std::string_view ident) {
  if (!span.ok()) return false;
  for (std::size_t i = span.begin; i < span.end; ++i) {
    if (IsIdent((*span.toks)[i], ident)) return true;
  }
  return false;
}

/// Case-label groups of every switch inside `body`: each group maps the
/// labels of consecutive `case X:` lines to the statement tokens that follow
/// (up to the next case/default), so fallthrough groups share one block.
struct CaseGroup {
  std::vector<std::string> labels;
  Span block;
};

std::vector<CaseGroup> CaseGroups(const Span& body) {
  std::vector<CaseGroup> groups;
  if (!body.ok()) return groups;
  const auto& toks = *body.toks;
  std::size_t i = body.begin;
  while (i < body.end) {
    if (!IsIdent(toks[i], "case")) {
      ++i;
      continue;
    }
    CaseGroup group;
    // Collect consecutive `case <qualified-name> :` labels.
    while (i < body.end && IsIdent(toks[i], "case")) {
      std::string label;
      ++i;
      while (i < body.end && !Is(toks[i], ":")) {
        if (toks[i].kind == TokKind::kIdent) label = toks[i].text;
        ++i;
      }
      if (i < body.end) ++i;  // ':'
      if (!label.empty()) group.labels.push_back(label);
    }
    // The group's block runs to the next case/default at any depth (good
    // enough for the dispatch switches this rule anchors on).
    group.block.toks = body.toks;
    group.block.begin = i;
    while (i < body.end && !IsIdent(toks[i], "case") &&
           !IsIdent(toks[i], "default")) {
      ++i;
    }
    group.block.end = i;
    groups.push_back(std::move(group));
  }
  return groups;
}

const CaseGroup* GroupFor(const std::vector<CaseGroup>& groups,
                          std::string_view label) {
  for (const CaseGroup& g : groups) {
    if (std::find(g.labels.begin(), g.labels.end(), label) != g.labels.end()) {
      return &g;
    }
  }
  return nullptr;
}

/// Identifiers of an initializer list `name[] = { ... }` (the kProcs table).
/// Plain uses of the name (range-fors, indexing) are skipped: only a brace
/// init introduced by `=` matches, so the table can be defined after its
/// first use in the file.
std::vector<std::string> ArrayInitIdents(const Lexed& lex,
                                         std::string_view name, int* line_out) {
  const auto& toks = lex.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], name)) continue;
    std::size_t j = i;
    bool saw_eq = false;
    while (j < toks.size() && !Is(toks[j], "{")) {
      if (Is(toks[j], ";")) break;
      if (Is(toks[j], "=")) saw_eq = true;
      ++j;
    }
    if (j >= toks.size() || !Is(toks[j], "{") || !saw_eq) continue;
    if (line_out != nullptr) *line_out = toks[i].line;
    std::vector<std::string> idents;
    int depth = 1;
    for (++j; j < toks.size() && depth > 0; ++j) {
      if (Is(toks[j], "{")) ++depth;
      if (Is(toks[j], "}")) --depth;
      if (toks[j].kind == TokKind::kIdent) idents.push_back(toks[j].text);
    }
    return idents;
  }
  return {};
}

void Add(std::vector<Finding>& out, const char* rule, const FileUnit& unit,
         int line, std::string message) {
  out.push_back({rule, unit.rel_path, line, std::move(message)});
}

bool Contains(const std::vector<std::string>& haystack, const std::string& v) {
  return std::find(haystack.begin(), haystack.end(), v) != haystack.end();
}

/// The NFSv3 procedures that mutate server state. This is protocol
/// knowledge, not repo convention: RFC 1813 defines these as the
/// state-changing subset, so the linter may hardcode it and demand that the
/// proxy treats each one as mutating.
constexpr std::array<std::string_view, 8> kMutatingProcs = {
    "kSetAttr", "kWrite", "kCreate", "kMkdir",
    "kRemove",  "kRmdir", "kRename", "kLink"};

}  // namespace

// ---------------------------------------------------------------------------
// proc-coverage
// ---------------------------------------------------------------------------

void CheckProcCoverage(const Tree& tree, std::vector<Finding>& out) {
  const FileUnit* nfs_proto = FindUnit(tree, "src/nfs3/proto.h");
  const FileUnit* server = FindUnit(tree, "src/gvfs/proxy_server.cpp");
  if (nfs_proto != nullptr && server != nullptr) {
    int enum_line = 0;
    std::vector<std::string> procs =
        EnumValues(nfs_proto->lex, "Proc", &enum_line);

    int table_line = 0;
    std::vector<std::string> registered =
        ArrayInitIdents(server->lex, "kProcs", &table_line);
    Span classify = FunctionBody(server->lex, "Classify");
    std::vector<CaseGroup> cases = CaseGroups(classify);

    for (const std::string& proc : procs) {
      if (proc == "kNull") continue;  // NULL is a ping; the proxy never sees it
      if (registered.empty() || !Contains(registered, proc)) {
        Add(out, "proc-coverage", *server, table_line,
            "NFS proc '" + proc + "' is missing from the kProcs handler "
            "registration table; calls to it bypass the proxy");
      }
      if (classify.ok() && GroupFor(cases, proc) == nullptr) {
        Add(out, "proc-coverage", *server, classify.line,
            "NFS proc '" + proc + "' has no case in Classify(); it is "
            "forwarded with no consistency handling");
      }
    }
    if (!classify.ok()) {
      Add(out, "proc-coverage", *server, 1,
          "Classify() definition not found; request classification is the "
          "anchor for all consistency handling");
    }
  }

  // Every GVFS proc must have a RegisterHandler somewhere under src/gvfs/
  // (server side registers GETINV; the client side registers CALLBACK and
  // RECOVERY).
  const FileUnit* gvfs_proto = FindUnit(tree, "src/gvfs/proto.h");
  if (gvfs_proto == nullptr) return;
  int gvfs_enum_line = 0;
  std::vector<std::string> gvfs_procs =
      EnumValues(gvfs_proto->lex, "GvfsProc", &gvfs_enum_line);
  if (gvfs_procs.empty()) return;

  std::set<std::string> handler_args;
  for (const auto& [rel, unit] : tree) {
    if (rel.find("src/gvfs/") == std::string::npos) continue;
    const auto& toks = unit.lex.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsIdent(toks[i], "RegisterHandler") || !Is(toks[i + 1], "(")) {
        continue;
      }
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (Is(toks[j], "(")) ++depth;
        if (Is(toks[j], ")") && --depth == 0) break;
        if (toks[j].kind == TokKind::kIdent) handler_args.insert(toks[j].text);
      }
    }
  }
  for (const std::string& proc : gvfs_procs) {
    if (handler_args.count(proc) == 0) {
      Add(out, "proc-coverage", *gvfs_proto, gvfs_enum_line,
          "GVFS proc '" + proc + "' has no RegisterHandler call under "
          "src/gvfs/; calls to it time out");
    }
  }
}

// ---------------------------------------------------------------------------
// stats-name-coverage
// ---------------------------------------------------------------------------

namespace {

void CheckNameTable(const Tree& tree, const char* rule,
                    std::string_view enum_file, std::string_view enum_name,
                    std::string_view impl_file, std::string_view func,
                    std::string_view consequence, std::vector<Finding>& out) {
  const FileUnit* decl = FindUnit(tree, enum_file);
  const FileUnit* impl = FindUnit(tree, impl_file);
  if (decl == nullptr || impl == nullptr) return;
  int enum_line = 0;
  std::vector<std::string> values =
      EnumValues(decl->lex, enum_name, &enum_line);
  if (values.empty()) return;
  Span body = FunctionBody(impl->lex, func);
  if (!body.ok()) {
    Add(out, rule, *impl, 1,
        std::string(func) + "() definition not found; " +
        std::string(consequence));
    return;
  }
  std::vector<CaseGroup> cases = CaseGroups(body);
  for (const std::string& value : values) {
    if (GroupFor(cases, value) == nullptr) {
      Add(out, rule, *impl, body.line,
          "'" + value + "' has no case in " + std::string(func) + "(); " +
          std::string(consequence));
    }
  }
}

}  // namespace

void CheckStatsNameCoverage(const Tree& tree, std::vector<Finding>& out) {
  CheckNameTable(tree, "stats-name-coverage", "src/nfs3/proto.h", "Proc",
                 "src/nfs3/proto.cpp", "ProcName",
                 "its stats/trace label degrades to the unknown bucket", out);
  CheckNameTable(tree, "stats-name-coverage", "src/gvfs/proto.h", "GvfsProc",
                 "src/gvfs/proto.cpp", "GvfsProcName",
                 "its stats/trace label degrades to the unknown bucket", out);
}

// ---------------------------------------------------------------------------
// inv-coverage
// ---------------------------------------------------------------------------

void CheckInvCoverage(const Tree& tree, std::vector<Finding>& out) {
  const FileUnit* nfs_proto = FindUnit(tree, "src/nfs3/proto.h");
  const FileUnit* server = FindUnit(tree, "src/gvfs/proxy_server.cpp");
  if (nfs_proto != nullptr && server != nullptr) {
    std::vector<std::string> procs =
        EnumValues(nfs_proto->lex, "Proc", nullptr);
    Span classify = FunctionBody(server->lex, "Classify");
    std::vector<CaseGroup> cases = CaseGroups(classify);

    // Each protocol-defined mutating proc must be classified mutating — that
    // flag is the sole gate to RecordInvalidation and the staleness stamps.
    for (std::string_view proc : kMutatingProcs) {
      const std::string name(proc);
      if (!Contains(procs, name)) continue;  // partial tree / fixture subset
      const CaseGroup* group = GroupFor(cases, name);
      if (group == nullptr) continue;  // proc-coverage already reports this
      if (!SpanContains(group->block, "mutating")) {
        Add(out, "inv-coverage", *server, classify.line,
            "mutating NFS proc '" + name + "' is not marked mutating in "
            "Classify(); its invalidation-buffer append and staleness stamp "
            "are skipped");
      }
    }

    // The mutating path itself: HandleNfs must reach RecordInvalidation —
    // directly, or through PropagateInvalidation (the sharded form, which
    // records locally or forwards to the owning shard with NOTIFYINV) — and
    // RecordInvalidation must append to the invalidation log.
    Span handle = FunctionBody(server->lex, "HandleNfs");
    if (handle.ok()) {
      if (!SpanContains(handle, "RecordInvalidation") &&
          !SpanContains(handle, "PropagateInvalidation")) {
        Add(out, "inv-coverage", *server, handle.line,
            "HandleNfs() never calls RecordInvalidation or "
            "PropagateInvalidation; mutating procs leave no "
            "invalidation-log entries");
      }
    }
    Span propagate = FunctionBody(server->lex, "PropagateInvalidation");
    if (propagate.ok() && !SpanContains(propagate, "RecordInvalidation")) {
      Add(out, "inv-coverage", *server, propagate.line,
          "PropagateInvalidation() never calls RecordInvalidation; "
          "owned-shard mutations leave no invalidation-log entries");
    }
    Span record = FunctionBody(server->lex, "RecordInvalidation");
    if (record.ok()) {
      if (!SpanContains(record, "Append")) {
        Add(out, "inv-coverage", *server, record.line,
            "RecordInvalidation() never calls InvLog::Append(); polling "
            "clients stop seeing peer writes");
      }
    } else {
      Add(out, "inv-coverage", *server, 1,
          "RecordInvalidation() definition not found; the "
          "invalidation-polling model has no producer");
    }
  }

  // The aggregation tier re-publishes upstream invalidations to the clients
  // it fronts through its own log: Ingest() must append every handle —
  // otherwise clients behind the tier silently stop seeing peer writes while
  // the direct path still works.
  const FileUnit* agg = FindUnit(tree, "src/fleet/inv_aggregator.cpp");
  if (agg != nullptr) {
    Span ingest = FunctionBody(agg->lex, "Ingest");
    if (ingest.ok() && !SpanContains(ingest, "Append")) {
      Add(out, "inv-coverage", *agg, ingest.line,
          "Ingest() never calls InvLog::Append(); upstream invalidations "
          "are dropped at the aggregation tier");
    }
  }

  // The log both nodes append to must actually store the entry.
  const FileUnit* log = FindUnit(tree, "src/gvfs/inv_log.cpp");
  if (log == nullptr) return;
  Span append = FunctionBody(log->lex, "Append");
  if (!append.ok()) {
    Add(out, "inv-coverage", *log, 1,
        "InvLog::Append() definition not found; the invalidation log has "
        "no producer");
  } else if (!SpanContains(append, "push_back")) {
    Add(out, "inv-coverage", *log, append.line,
        "InvLog::Append() never stores the entry; clients of the proxy "
        "server and of the aggregation tier stop seeing peer writes");
  }
}

// ---------------------------------------------------------------------------
// migrate-coverage
// ---------------------------------------------------------------------------

void CheckMigrateCoverage(const Tree& tree, std::vector<Finding>& out) {
  // The adaptive engine's safety argument is the drain-before-switch chain:
  // a MIGRATE reply may only switch a file's mode after the server has
  // recalled conflicting delegations and delivered the caller's buffered
  // invalidations for that file, and the client may only issue a MIGRATE
  // after flushing and dropping its own delegation state. TraceChecker
  // invariant 6 observes violations at runtime; this rule proves at lint
  // time that the code path producing the handshake still exists.
  const FileUnit* server = FindUnit(tree, "src/gvfs/proxy_server.cpp");
  if (server != nullptr) {
    Span migrate = FunctionBody(server->lex, "HandleMigrate");
    if (migrate.ok()) {
      if (!SpanContains(migrate, "Drain")) {
        Add(out, "migrate-coverage", *server, migrate.line,
            "HandleMigrate() never calls InvLog::Drain(); a mutation "
            "logged before the mode switch becomes invisible after it");
      }
      if (!SpanContains(migrate, "RecallConflicts")) {
        Add(out, "migrate-coverage", *server, migrate.line,
            "HandleMigrate() never calls RecallConflicts(); a migration can "
            "switch modes under a live conflicting delegation");
      }
    }
  }
  const FileUnit* log = FindUnit(tree, "src/gvfs/inv_log.cpp");
  if (log != nullptr) {
    Span drain = FunctionBody(log->lex, "Drain");
    if (drain.ok()) {
      if (!SpanContains(drain, "Release")) {
        Add(out, "migrate-coverage", *log, drain.line,
            "InvLog::Drain() never releases the drained entry; drained "
            "invalidations would be delivered twice");
      }
      if (!SpanContains(drain, "kInvPoll")) {
        Add(out, "migrate-coverage", *log, drain.line,
            "InvLog::Drain() does not trace its deliveries as kInvPoll; "
            "TraceChecker invariant 6 cannot credit the drain");
      }
    } else {
      Add(out, "migrate-coverage", *log, 1,
          "InvLog::Drain() definition not found; the MIGRATE handshake "
          "has no drain step");
    }
  }

  const FileUnit* client = FindUnit(tree, "src/gvfs/proxy_client.cpp");
  if (client != nullptr) {
    Span migrate = FunctionBody(client->lex, "MigrateMode");
    if (migrate.ok()) {
      if (!SpanContains(migrate, "FlushFile")) {
        Add(out, "migrate-coverage", *client, migrate.line,
            "MigrateMode() never calls FlushFile(); dirty data can be "
            "stranded behind a delegation the switch abandons");
      }
      if (!SpanContains(migrate, "DropDelegation")) {
        Add(out, "migrate-coverage", *client, migrate.line,
            "MigrateMode() never calls DropDelegation(); stale client "
            "delegation state survives the mode switch");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// trace-coverage
// ---------------------------------------------------------------------------

void CheckTraceCoverage(const Tree& tree, std::vector<Finding>& out) {
  // The invalidation append must be observable in traces, once per client
  // it reaches: the TraceChecker's invariants (and the staleness analysis)
  // are blind to unrecorded appends, and its kAggTier invariant (no
  // invalidation lost or duplicated crossing the tier) matches the tier's
  // fan-outs against its ingests.
  const FileUnit* log = FindUnit(tree, "src/gvfs/inv_log.cpp");
  if (log != nullptr) {
    Span append = FunctionBody(log->lex, "Append");
    if (append.ok() && !SpanContains(append, "kInvAppend")) {
      Add(out, "trace-coverage", *log, append.line,
          "InvLog::Append() does not emit a kInvAppend trace event; the "
          "TraceChecker cannot see proxy-server appends");
    }
    if (append.ok() && !SpanContains(append, "kAggFanout")) {
      Add(out, "trace-coverage", *log, append.line,
          "InvLog::Append() does not emit a kAggFanout trace event; the "
          "kAggTier invariant cannot see tier fan-outs");
    }
  }
  const FileUnit* agg = FindUnit(tree, "src/fleet/inv_aggregator.cpp");
  if (agg != nullptr) {
    Span ingest = FunctionBody(agg->lex, "Ingest");
    if (ingest.ok() && !SpanContains(ingest, "kAggIngest")) {
      Add(out, "trace-coverage", *agg, ingest.line,
          "Ingest() does not emit a kAggIngest trace event; the kAggTier "
          "invariant cannot pair fan-outs with their upstream ingest");
    }
  }

  // Every trace::EventType must have an EventTypeName case, or exporters
  // render events that cannot be told apart.
  CheckNameTable(tree, "trace-coverage", "src/trace/trace.h", "EventType",
                 "src/trace/trace.cpp", "EventTypeName",
                 "its stats/trace label degrades to the unknown bucket", out);
}

// ---------------------------------------------------------------------------
// anomaly-coverage
// ---------------------------------------------------------------------------

void CheckAnomalyCoverage(const Tree& tree, std::vector<Finding>& out) {
  // Every obs::AnomalyKind must stay wired end to end through the diagnosis
  // layer: a kDetectors registry entry (drives the per-kind observatory
  // counters and the dump rendering), an AnomalyKindName case (the
  // kebab-case wire name round-tripped through .gvfsdump files), and a
  // gvfs-doctor VerdictFor case (the operator-facing remedy). A detector
  // missing any link still fires online but renders as "?" offline — the
  // post-mortem names an anomaly nobody can act on.
  const FileUnit* decl = FindUnit(tree, "src/obs/anomaly.h");
  const FileUnit* impl = FindUnit(tree, "src/obs/anomaly.cpp");
  if (decl == nullptr || impl == nullptr) return;
  int enum_line = 0;
  std::vector<std::string> kinds =
      EnumValues(decl->lex, "AnomalyKind", &enum_line);
  if (kinds.empty()) return;

  int table_line = 0;
  std::vector<std::string> registered =
      ArrayInitIdents(impl->lex, "kDetectors", &table_line);
  if (registered.empty()) {
    Add(out, "anomaly-coverage", *impl, 1,
        "kDetectors registry not found; the watchdog has no detector table "
        "to attach counters or render dumps from");
  } else {
    for (const std::string& kind : kinds) {
      if (!Contains(registered, kind)) {
        Add(out, "anomaly-coverage", *impl, table_line,
            "AnomalyKind '" + kind + "' is missing from the kDetectors "
            "registry; its observatory counter and dump rendering vanish");
      }
    }
  }

  CheckNameTable(tree, "anomaly-coverage", "src/obs/anomaly.h", "AnomalyKind",
                 "src/obs/anomaly.cpp", "AnomalyKindName",
                 "its wire name degrades to '?' in dumps and counters", out);
  CheckNameTable(tree, "anomaly-coverage", "src/obs/anomaly.h", "AnomalyKind",
                 "tools/doctor/doctor.cpp", "VerdictFor",
                 "the doctor has no remedy text for that anomaly", out);
}

}  // namespace gvfs::lint
