#include "core/patchdb.h"

#include <optional>

#include "obs/trace.h"
#include "util/log.h"

namespace patchdb::core {

PatchDb build_patchdb(const BuildOptions& options) {
  return build_patchdb(options, BuildHooks{});
}

PatchDb build_patchdb(const BuildOptions& options, const BuildHooks& hooks) {
  PatchDb db;

  // Stage 1: simulate the universe and run the NVD collection pipeline.
  std::optional<corpus::World> world;
  {
    PATCHDB_TRACE_SPAN("build.world");
    world.emplace(corpus::build_world(options.world));
  }
  db.crawl_stats = world->crawl_stats;

  // Stage 2: wild augmentation via nearest link + oracle verification.
  {
    std::vector<const corpus::CommitRecord*> seed;
    seed.reserve(world->nvd_security.size());
    for (const corpus::CommitRecord& r : world->nvd_security) seed.push_back(&r);

    AugmentationLoop loop(std::move(seed), world->oracle, options.streaming_link);
    const bool restored = hooks.before_rounds && hooks.before_rounds(loop, *world);
    if (!restored) {
      std::vector<const corpus::CommitRecord*> pool;
      pool.reserve(world->wild.size());
      for (const corpus::CommitRecord& r : world->wild) pool.push_back(&r);
      loop.set_pool(std::move(pool));
    }
    if (hooks.after_round) loop.set_round_callback(hooks.after_round);
    db.rounds = loop.run(options.augment);
    db.verification_effort = world->oracle.effort();

    // The loop is done with the world's records (its seed and pool point
    // into them), so each component takes its records by move.
    db.nvd_security = std::move(world->nvd_security);
    auto take_wild = [&world](const corpus::CommitRecord* r) {
      return std::move(world->wild[static_cast<std::size_t>(r - world->wild.data())]);
    };
    const std::vector<const corpus::CommitRecord*> found = loop.wild_security();
    db.wild_security.reserve(found.size());
    for (const corpus::CommitRecord* r : found) db.wild_security.push_back(take_wild(r));
    db.nonsecurity.reserve(loop.nonsecurity().size());
    for (const corpus::CommitRecord* r : loop.nonsecurity()) {
      db.nonsecurity.push_back(take_wild(r));
    }
    // The loop's security rows are the seed (NVD) rows then the wild
    // finds, in component order; the rejected rows follow.
    db.natural_features = loop.security_features();
    const feature::FeatureMatrix& rejected = loop.nonsecurity_features();
    for (std::size_t i = 0; i < rejected.rows(); ++i) {
      db.natural_features.push_back(rejected[i]);
    }
  }
  {
    // Everything the build did not keep: the rest of the wild pool, the
    // oracle, the NVD index and the simulated web.
    PATCHDB_TRACE_SPAN("build.world_release");
    world.reset();
  }

  // Stage 3: synthetic oversampling from the natural patches that carry
  // snapshots (NVD side by default; wild side when the world kept them).
  if (options.run_synthesis) {
    db.synthetic = synth::synthesize_all(db.nvd_security, options.synthesis,
                                         options.world.seed ^ 0x5f5f5f5fULL);
    const auto wild_synth = synth::synthesize_all(
        db.wild_security, options.synthesis, options.world.seed ^ 0x3c3c3c3cULL);
    db.synthetic.insert(db.synthetic.end(), wild_synth.begin(), wild_synth.end());
  }

  util::log_info() << "patchdb: " << db.nvd_security.size() << " NVD + "
                   << db.wild_security.size() << " wild security, "
                   << db.nonsecurity.size() << " non-security, "
                   << db.synthetic.size() << " synthetic";
  return db;
}

}  // namespace patchdb::core
