#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "catalog/anomalies.h"
#include "obs/telemetry.h"
#include "orchestrator/campaign.h"
#include "orchestrator/campaign_report.h"
#include "orchestrator/journal.h"
#include "workload/backend_mock.h"
#include "workload/backend_sim.h"
#include "workload/engine.h"

namespace collie::workload {
namespace {

Workload simple_write() {
  Workload w;
  w.qp_type = QpType::kRC;
  w.opcode = Opcode::kWrite;
  w.num_qps = 4;
  w.wqe_batch = 4;
  w.mr_size = 256 * KiB;
  w.pattern = {64 * KiB};
  return w;
}

TEST(Engine, FunctionalPassAcceptsCleanWorkloads) {
  Engine engine(sim::subsystem('F'));
  std::string err;
  EXPECT_TRUE(engine.validate_functional(simple_write(), &err)) << err;

  Workload send = simple_write();
  send.opcode = Opcode::kSend;
  EXPECT_TRUE(engine.validate_functional(send, &err)) << err;

  Workload read = simple_write();
  read.opcode = Opcode::kRead;
  EXPECT_TRUE(engine.validate_functional(read, &err)) << err;

  Workload ud = simple_write();
  ud.qp_type = QpType::kUD;
  ud.opcode = Opcode::kSend;
  ud.mtu = 2048;
  ud.pattern = {2048};
  EXPECT_TRUE(engine.validate_functional(ud, &err)) << err;
}

TEST(Engine, FunctionalPassAcceptsEveryConcreteAnomalySetting) {
  // The 18 Appendix-A settings must all be expressible as legal verbs
  // programs — they ran on real hardware.
  for (const auto& a : catalog::all_anomalies()) {
    Engine engine(sim::subsystem(a.primary_subsystem));
    std::string err;
    EXPECT_TRUE(engine.validate_functional(a.concrete, &err))
        << "anomaly #" << a.id << ": " << err;
  }
}

TEST(Engine, FunctionalPassRejectsInvalidWorkloads) {
  Engine engine(sim::subsystem('F'));
  std::string err;
  Workload bad = simple_write();
  bad.qp_type = QpType::kUD;  // UD WRITE is illegal
  EXPECT_FALSE(engine.validate_functional(bad, &err));
  EXPECT_NE(err.find("invalid workload"), std::string::npos);
}

TEST(Engine, MeasurementShape) {
  Engine engine(sim::subsystem('F'));
  Rng rng(11);
  const Measurement m = engine.run(simple_write(), rng);
  // Four counter fetches per iteration (§6).
  EXPECT_EQ(m.samples.size(), 4u);
  EXPECT_TRUE(m.stable);
  EXPECT_GE(m.cost_seconds, 20.0);
  EXPECT_LE(m.cost_seconds, 70.0);
  EXPECT_GT(m.rx_goodput_bps, gbps(150));
  EXPECT_GT(m.average.get(sim::PerfCounter::kTxGoodputBps), 0.0);
}

TEST(Engine, CostScalesWithSetupWork) {
  Engine engine(sim::subsystem('F'));
  Rng rng(11);
  Workload small = simple_write();
  Workload big = simple_write();
  big.num_qps = 15000;
  const double cost_small = engine.run(small, rng).cost_seconds;
  const double cost_big = engine.run(big, rng).cost_seconds;
  EXPECT_GT(cost_big, cost_small + 10.0);
}

TEST(Engine, AnomalousWorkloadMeasuresAnomalous) {
  Engine engine(sim::subsystem('F'));
  Rng rng(11);
  const Measurement m = engine.run(catalog::anomaly(1).concrete, rng);
  EXPECT_GT(m.pause_duration_ratio, 0.001);
  EXPECT_EQ(m.dominant, sim::Bottleneck::kRwqeBurstMiss);
}

TEST(Engine, FunctionalPassCanBeDisabled) {
  EngineOptions opts;
  opts.run_functional_pass = false;
  Engine engine(sim::subsystem('F'), opts);
  Rng rng(1);
  const Measurement m = engine.run(simple_write(), rng);
  EXPECT_GT(m.rx_goodput_bps, 0.0);
}

// ---- execution backends -----------------------------------------------------

TEST(Backend, SimBackendIsTheDefault) {
  Engine engine(sim::subsystem('F'));
  EXPECT_EQ(engine.backend().kind(), BackendKind::kSim);
  EXPECT_EQ(engine.backend().substrate(), "sim");
}

// A wrapper that forwards to a SimBackend and reports the inner kind, the
// way timing and tracing wrappers do.  The engine must call it through the
// Backend interface: only a real SimBackend takes the devirtualized path.
class ForwardingBackend final : public Backend {
 public:
  ForwardingBackend(const sim::Subsystem& sys, const EngineOptions& opts,
                    i64* calls)
      : inner_(sys, opts), calls_(calls) {}
  BackendKind kind() const override { return inner_.kind(); }
  const std::string& substrate() const override { return inner_.substrate(); }
  void measure(const Workload& w, Rng& rng, sim::EvalScratch& scratch,
               Measurement& out) override {
    *calls_ += 1;
    inner_.measure(w, rng, scratch, out);
  }

 private:
  SimBackend inner_;
  i64* calls_;
};

class ForwardingFactory final : public BackendFactory {
 public:
  BackendKind kind() const override { return BackendKind::kSim; }
  const std::string& substrate() const override { return sim_.substrate(); }
  std::unique_ptr<Backend> create(const sim::Subsystem& sys,
                                  const EngineOptions& opts,
                                  const std::string&) override {
    return std::make_unique<ForwardingBackend>(sys, opts, &calls);
  }
  i64 calls = 0;

 private:
  SimBackendFactory sim_;
};

TEST(Backend, WrapperReportingSimKindSeesEveryMeasure) {
  ForwardingFactory factory;
  EngineOptions opts;
  opts.backend_factory = &factory;
  const Engine engine(sim::subsystem('F'), opts);
  EXPECT_EQ(engine.backend().kind(), BackendKind::kSim);
  Rng rng(11);
  for (int i = 0; i < 3; ++i) {
    const Measurement m = engine.run(simple_write(), rng);
    EXPECT_GT(m.rx_goodput_bps, 0.0);
  }
  EXPECT_EQ(factory.calls, 3);
}

// A small deterministic campaign template every backend test shares: one
// subsystem-B cell, cell-scoped pool, deterministic execution — the shape
// journal record/replay requires.
orchestrator::CampaignConfig small_campaign() {
  orchestrator::CampaignConfig config;
  config.subsystems = {'B'};
  config.workers = 2;
  config.share = orchestrator::ShareScope::kCell;
  config.execution = orchestrator::ExecutionMode::kDeterministic;
  config.budget.seconds = 900.0;
  config.engine.run_functional_pass = false;
  return config;
}

std::string fresh_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "collie_engine_test_" + name;
  std::remove(path.c_str());
  return path;
}

// Run `config` journaling into a fresh file at `path` — the wiring the
// campaign CLI does for --journal — and return its report.
std::string record_journal(orchestrator::CampaignConfig config,
                           const std::string& path) {
  orchestrator::CampaignJournal journal(path, /*journal_every=*/64);
  config.journal = &journal;
  config.backend_factory = std::make_shared<orchestrator::SpliceBackendFactory>(
      nullptr, nullptr, &journal);
  return orchestrator::build_report(orchestrator::Campaign(config).run())
      .to_json();
}

orchestrator::JournalResume replay_state(const std::string& path) {
  const orchestrator::JournalRecovery rec =
      orchestrator::recover_journal(path, /*repair=*/false);
  EXPECT_TRUE(rec.error.empty()) << rec.error;
  EXPECT_FALSE(rec.torn);
  return orchestrator::parse_journal_for_replay(rec.payloads);
}

struct Replayed {
  orchestrator::CampaignResult result;
  std::string report;
  i64 replayed = 0;
  i64 live = 0;
  u64 evals = 0;  // engine.eval_ns observations: simulator evaluations
};

// Replay a journal the way --replay does: its recorded schedule, every cell
// served by the splice backend with no live tail.  Telemetry is on so the
// zero-evaluation claim is observable.
Replayed replay_journal(orchestrator::CampaignConfig config,
                        const orchestrator::JournalResume& state) {
  obs::Telemetry telemetry;
  auto splice = std::make_shared<orchestrator::SpliceBackendFactory>(
      nullptr, &state, nullptr);
  config.replay = state.schedule;
  config.backend_factory = splice;
  config.telemetry = &telemetry;
  Replayed out;
  out.result = orchestrator::Campaign(config).run();
  out.report = orchestrator::build_report(out.result).to_json();
  out.replayed = splice->replayed();
  out.live = splice->live();
  const obs::Snapshot snap = telemetry.snapshot();
  const auto it = snap.histograms.find("engine.eval_ns");
  out.evals = it != snap.histograms.end() ? it->second.count : 0;
  return out;
}

i64 experiments(const orchestrator::CampaignResult& result) {
  i64 total = 0;
  for (const orchestrator::CellResult& cr : result.cells) {
    total += cr.result.experiments;
  }
  return total;
}

TEST(Backend, JournalReplayReportsAreByteIdentical) {
  // Leg 0: the plain simulator.
  const std::string sim_report =
      orchestrator::build_report(
          orchestrator::Campaign(small_campaign()).run())
          .to_json();

  // Leg 1: record.  Same trajectory as the plain simulator, same report.
  const std::string path = fresh_path("replay.journal");
  EXPECT_EQ(record_journal(small_campaign(), path), sim_report);

  // Leg 2: replay from the journal file.  The report must match byte for
  // byte — substrate attribution, not transport — without a single
  // simulator evaluation: every probe came from the journal.
  const orchestrator::JournalResume state = replay_state(path);
  const Replayed replay = replay_journal(small_campaign(), state);
  EXPECT_EQ(replay.report, sim_report);
  EXPECT_EQ(replay.result.backend, "sim");
  EXPECT_EQ(replay.evals, 0u);
  EXPECT_GT(experiments(replay.result), 0);
  EXPECT_EQ(replay.replayed, experiments(replay.result));
  EXPECT_EQ(replay.live, 0);
  std::remove(path.c_str());
}

TEST(Backend, JournalRecordedOnFourThreadsReplaysOnOne) {
  // Four cells recorded by four worker threads replay deterministically on
  // the calling thread: logical workers come from the journaled schedule,
  // probes from the journal.
  orchestrator::CampaignConfig record = small_campaign();
  record.subsystems = {'B', 'F'};
  record.seeds_per_cell = 2;
  record.workers = 4;
  record.execution = orchestrator::ExecutionMode::kThreads;
  const std::string path = fresh_path("threads.journal");
  const std::string recorded = record_journal(record, path);

  orchestrator::CampaignConfig replay_config = record;
  replay_config.workers = 1;
  replay_config.execution = orchestrator::ExecutionMode::kDeterministic;
  const Replayed replay = replay_journal(replay_config, replay_state(path));
  EXPECT_EQ(replay.report, recorded);
  EXPECT_EQ(replay.result.workers, 4);
  EXPECT_EQ(replay.evals, 0u);
  EXPECT_EQ(replay.live, 0);
  std::remove(path.c_str());
}

TEST(Backend, JournalMissingACellsProbesFailsLoudly) {
  orchestrator::CampaignConfig config = small_campaign();
  config.seeds_per_cell = 2;  // B/Diag#0 and B/Diag#1
  const std::string path = fresh_path("missing.journal");
  record_journal(config, path);

  // Drop every probe record of B/Diag#1, keep everything else.
  const orchestrator::JournalRecovery rec =
      orchestrator::recover_journal(path, /*repair=*/false);
  std::vector<std::string> kept;
  for (const std::string& p : rec.payloads) {
    if (p.find(R"("record":"probe","context":"B/Diag#1")") ==
        std::string::npos) {
      kept.push_back(p);
    }
  }
  ASSERT_LT(kept.size(), rec.payloads.size());
  const orchestrator::JournalResume state =
      orchestrator::parse_journal_for_replay(kept);

  // The starved cell fails at its first probe, naming the cell and the
  // probe index; still no simulator evaluation anywhere.  The intact cell
  // replays in full.
  const Replayed replay = replay_journal(config, state);
  ASSERT_EQ(replay.result.cells.size(), 2u);
  EXPECT_FALSE(replay.result.cells[0].failed());
  const std::string& error = replay.result.cells[1].error;
  EXPECT_NE(error.find("\"B/Diag#1\" has no probe 0"), std::string::npos)
      << error;
  EXPECT_EQ(replay.evals, 0u);
  EXPECT_EQ(replay.live, 0);
  std::remove(path.c_str());
}

// Two probes journaled through one engine (context "cell"), parsed back for
// replay.
orchestrator::JournalResume two_probe_journal(const std::string& path,
                                              RngState* rng_after) {
  const sim::Subsystem& sys = sim::subsystem('F');
  {
    orchestrator::CampaignJournal journal(path, /*journal_every=*/1);
    orchestrator::SpliceBackendFactory factory(nullptr, nullptr, &journal);
    EngineOptions opts;
    opts.run_functional_pass = false;
    opts.backend_factory = &factory;
    opts.backend_context = "cell";
    Engine engine(sys, opts);
    Rng rng(3);
    engine.run(simple_write(), rng);
    engine.run(catalog::anomaly(1).concrete, rng);
    *rng_after = rng.state();
  }
  return replay_state(path);
}

EngineOptions replay_options(orchestrator::SpliceBackendFactory* factory) {
  EngineOptions opts;
  opts.run_functional_pass = false;
  opts.backend_factory = factory;
  opts.backend_context = "cell";
  return opts;
}

TEST(Backend, JournalReplayDivergenceFailsLoudly) {
  const std::string path = fresh_path("diverge.journal");
  RngState unused;
  const orchestrator::JournalResume state = two_probe_journal(path, &unused);
  orchestrator::SpliceBackendFactory replay(nullptr, &state, nullptr);
  const sim::Subsystem& sys = sim::subsystem('F');

  // A different workload at the cursor fails at that probe.
  {
    Engine engine(sys, replay_options(&replay));
    Rng rng(3);
    Workload other = simple_write();
    other.num_qps = 99;
    try {
      engine.run(other, rng);
      ADD_FAILURE() << "diverged workload replayed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("\"cell\" probe 0"),
                std::string::npos)
          << e.what();
    }
  }
  // Running past the journaled sequence fails too: there is no live tail.
  {
    Engine engine(sys, replay_options(&replay));
    Rng rng(3);
    engine.run(simple_write(), rng);
    engine.run(catalog::anomaly(1).concrete, rng);
    try {
      engine.run(simple_write(), rng);
      ADD_FAILURE() << "replay ran past the journal";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("\"cell\" has no probe 2"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(replay.live(), 0);
  std::remove(path.c_str());
}

TEST(Backend, JournalReplayRestoresTheRecordedRngStream) {
  // The same generator feeds measurement jitter and search decisions, so a
  // replayed probe must leave the Rng exactly where the recording left it.
  const std::string path = fresh_path("rng.journal");
  RngState after_record;
  const orchestrator::JournalResume state =
      two_probe_journal(path, &after_record);
  orchestrator::SpliceBackendFactory replay(nullptr, &state, nullptr);
  Engine engine(sim::subsystem('F'), replay_options(&replay));
  Rng replay_rng(3);
  engine.run(simple_write(), replay_rng);
  engine.run(catalog::anomaly(1).concrete, replay_rng);
  EXPECT_EQ(replay_rng.state(), after_record);
  // And the next draws agree.
  Rng record_rng(0);
  record_rng.set_state(after_record);
  EXPECT_EQ(record_rng.next_u64(), replay_rng.next_u64());
  std::remove(path.c_str());
}

TEST(Backend, MockBackendDrivesACampaign) {
  // A scripted healthy fleet: full line rate, no pauses.  The search finds
  // nothing, the report attributes the mock substrate, and the probe count
  // matches the campaign's experiment count (cost accounting — which the
  // responder must not reset — drove the budget to exhaustion).
  auto factory = std::make_shared<MockBackendFactory>(
      [](const Workload&, Measurement& out) {
        script_measurement(out, gbps(195));
      });
  orchestrator::CampaignConfig config = small_campaign();
  config.backend_factory = factory;
  const orchestrator::CampaignResult result =
      orchestrator::Campaign(config).run();
  const orchestrator::CampaignReport report =
      orchestrator::build_report(result);
  EXPECT_EQ(report.backend, "mock");
  EXPECT_EQ(report.anomalies.size(), 0u);
  EXPECT_GT(report.total_experiments, 0);
  EXPECT_EQ(factory->total_probes(),
            static_cast<i64>(report.total_experiments));
  // The report round-trips with the substrate label intact.
  EXPECT_EQ(
      orchestrator::campaign_report_from_json(report.to_json()).backend,
      "mock");
}

}  // namespace
}  // namespace collie::workload
