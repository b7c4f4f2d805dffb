// Cross-campaign MFS persistence (the paper's §6 deployment loop).
//
// A checkpoint is everything tomorrow's campaign needs to not redo today's
// work: the shared pool's scopes (every extracted MFS, per scope) and the
// labels of cells that ran to completion.  Warm-starting from it has two
// effects, both pinned by tests:
//   * loaded scopes pre-seed the ConcurrentMfsPool, so MatchMFS skips every
//     workload inside an already-explained region — zero probes are spent
//     there (the search drivers consult covers_preloaded for the sampled
//     points that bypass the regular skip);
//   * completed cells are skipped outright and reported in the coverage
//     table's `skipped` column, not inflated into `covered`.
// Re-running an identical campaign from its own checkpoint therefore
// performs zero experiments — the two-stage smoke CI pins exactly that.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/mfs.h"

namespace collie::orchestrator {

struct CampaignResult;  // orchestrator/campaign.h

struct CampaignCheckpoint {
  // The ShareScope name ("subsystem"/"cell") the campaign ran under.  Scope
  // keys are only meaningful under the same sharing policy — loading
  // cell-scoped entries into a subsystem-share campaign would register them
  // under keys no view ever queries, silently voiding the zero-reprobe
  // guarantee — so Campaign::run rejects a mismatch.
  std::string share = "subsystem";
  // Pool scopes in insertion order: scope name -> extracted MFSes.
  std::map<std::string, std::vector<core::Mfs>> scopes;
  // Labels of cells that ran to completion (or were themselves warm-start
  // skips of an earlier run), in plan order.
  std::vector<std::string> completed_cells;

  bool completed(const std::string& label) const;

  // JSON round trip: to_json(from_json(to_json(x))) is byte-identical.
  // from_json throws core::JsonError on truncated/garbled documents.
  std::string to_json() const;
  static CampaignCheckpoint from_json(const std::string& text);
};

// Outcome of loading a possibly-torn checkpoint file.  A strict parse
// fills `checkpoint` and sets `strict`; on a corrupt or truncated document
// the recovery scans the writer's compact layout instead, loading every
// record that still parses, and reports where the damage starts — so
// `--warm-start` can fail with "byte offset N, last valid record X" and
// `--warm-start-lenient` can load the salvaged prefix.
struct CheckpointRecovery {
  // The parsed document (strict), or every record of the valid prefix
  // (lenient; possibly empty).
  std::optional<CampaignCheckpoint> checkpoint;
  bool strict = false;
  // One past the last byte of the last successfully loaded record (strict:
  // the document size).
  std::size_t error_offset = 0;
  std::string error;       // the strict parser's complaint ("" when strict)
  std::string last_valid;  // description of the last loaded record
  i64 entries_loaded = 0;  // MFS entries recovered
};

// Strict-parse `text`; on any core::JsonError fall back to a valid-prefix
// scan.  Never throws: corruption is reported, not raised.
CheckpointRecovery recover_checkpoint(const std::string& text);

// Snapshot a finished campaign: its exported pool scopes plus every cell
// that completed (failed cells stay un-checkpointed so a re-run retries
// them).
CampaignCheckpoint make_checkpoint(const CampaignResult& result);

}  // namespace collie::orchestrator
