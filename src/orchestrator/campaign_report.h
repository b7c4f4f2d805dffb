// Campaign-level aggregation: dedupes anomalies by MFS region, rolls up
// per-subsystem coverage and the shared-pool statistics, merges per-cell
// traces onto the campaign timeline, and renders it all through
// common/table (text) and core/report (JSON).
#pragma once

#include <string>
#include <vector>

#include "orchestrator/campaign.h"

namespace collie::orchestrator {

// One distinct anomaly after MFS-region dedup.  Two discoveries on the same
// subsystem collapse when they share a symptom and either one's MFS covers
// the other's witness.
struct DedupedAnomaly {
  char subsystem = '?';
  std::string fabric = "pair";    // fabric scenario the discovery ran under
  std::string cc = "off";         // congestion-control scenario
  core::Symptom symptom = core::Symptom::kNone;
  core::Mfs representative;       // first discovery's MFS
  sim::Bottleneck dominant = sim::Bottleneck::kNone;
  int occurrences = 0;            // discoveries that collapsed into this
  std::string first_cell;         // label of the first cell to find it
  double first_found_at = 0.0;    // campaign-timeline seconds
};

// Coverage rolls up per (subsystem, fabric, cc scenario): an MFS region is
// only meaningful within one scenario's search space, so scenarios never
// dedup against each other.  Cells that aborted mid-run are tallied in
// `failed_cells` and contribute nothing to the covered counts — a failed
// cell searched nothing, and counting it as covered used to make a crashed
// campaign look like a clean sweep.  Warm-start-skipped cells likewise get
// their own `skipped_cells` column: they were covered by a *previous*
// campaign, and folding them into `cells` would make a warm-started re-run
// look like it searched regions it deliberately never touched.
struct SubsystemCoverage {
  char subsystem = '?';
  std::string fabric = "pair";
  std::string cc = "off";
  int cells = 0;             // cells that ran to completion this campaign
  int failed_cells = 0;      // cells that errored mid-run
  int skipped_cells = 0;     // warm-start-completed cells, never run
  int experiments = 0;
  int anomalies_found = 0;   // raw discoveries
  int distinct_anomalies = 0;
  int mfs_skips = 0;
  i64 cross_worker_skips = 0;
  i64 warm_start_skips = 0;  // MatchMFS hits on checkpoint-loaded regions
  double elapsed_seconds = 0.0;
};

// One point of the fleet-wide Figure-6-style trace: a cell's trace point
// placed on the campaign timeline (its worker's simulated clock).
struct CampaignTracePoint {
  double t_seconds = 0.0;  // campaign timeline
  std::string cell;
  int worker = -1;
  double counter_value = 0.0;
  bool anomaly_found = false;
  bool in_mfs_extraction = false;
};

struct CampaignReport {
  std::vector<DedupedAnomaly> anomalies;   // discovery order
  std::vector<SubsystemCoverage> coverage; // subsystem order of the config
  PoolStats pool;
  // Execution substrate the campaign measured on ("sim", "mock").
  // Substrate, not transport: a campaign replayed from a sim journal reports
  // "sim", so the record and replay legs' reports stay byte-identical.
  std::string backend = "sim";
  int workers = 0;
  int total_experiments = 0;
  double serial_seconds = 0.0;
  double makespan_seconds = 0.0;
  double speedup = 1.0;

  // Human-readable tables: coverage per subsystem, deduped anomalies, and
  // the campaign summary (speedup, pool stats).
  std::string render() const;
  // Machine-readable report; embeds each anomaly's full representative MFS
  // so to_json(campaign_report_from_json(to_json())) is byte-identical.
  // When `metrics` is non-null the telemetry roll-up is embedded as a
  // "metrics" member.  Wall-clock telemetry is nondeterministic, so callers
  // that need bit-exact replayable output (the CLI's --json stdout, the
  // replay smoke) pass null; the --metrics-out file passes the final
  // snapshot.  campaign_report_from_json ignores the member either way.
  std::string to_json(const obs::Snapshot* metrics = nullptr) const;
};

CampaignReport build_report(const CampaignResult& result);

// Inverse of CampaignReport::to_json.  Throws core::JsonError on
// truncated/garbled documents.
CampaignReport campaign_report_from_json(const std::string& text);

// The merged trace, ordered by campaign-timeline seconds (ties broken by
// worker id).  Kept out of CampaignReport: traces are big and most callers
// only want the tables.
std::vector<CampaignTracePoint> aggregate_trace(const CampaignResult& result);
std::string aggregate_trace_csv(const CampaignResult& result);

}  // namespace collie::orchestrator
