// One rule for implicit directories: a world op that has to create a
// missing ancestor creates it root:root 0755, whatever the op's own
// owner and mode. The check is a metamorphic relation over every
// resolvable scenario: declaring each implicitly created directory up
// front, as an explicit root:root 0755 `dir` op, must not change one
// byte of the scenario's report.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/families.hpp"
#include "apps/scenarios.hpp"
#include "apps/spec_env.hpp"
#include "core/campaign.hpp"
#include "core/report.hpp"
#include "core/scenario_family.hpp"
#include "core/scenario_spec.hpp"
#include "os/path.hpp"
#include "os/world.hpp"

namespace ep::core {
namespace {

std::vector<std::string> resolvable_names() {
  std::vector<std::string> names;
  for (const Scenario& s : apps::all_scenarios()) names.push_back(s.name);
  names.push_back("redzone-demo");
  for (const ScenarioFamily& f : apps::scenario_families())
    for (const ScenarioSpec& spec : expand_family(f))
      names.push_back(spec.name);
  return names;
}

/// The directories `spec`'s world ops create without declaring them,
/// parents first: the missing ancestors of every op's path (the leaf of
/// a `dir` op is declared).
std::vector<std::string> implicit_dirs(const ScenarioSpec& spec) {
  os::Kernel k;
  if (spec.standard_unix) os::world::standard_unix(k);
  std::vector<std::string> found;
  for (const WorldOp& op : spec.world) {
    const std::string path = os::path::normalize(op.path);
    std::string ancestor;
    const std::vector<std::string> comps = os::path::components(path);
    for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
      ancestor += "/" + comps[i];
      if (!k.vfs().resolve(ancestor, "/", os::kRootUid, os::kRootGid).ok()) {
        os::world::mkdirs(k, ancestor);
        found.push_back(ancestor);
      }
    }
    if (op.kind == WorldOp::Kind::dir) os::world::mkdirs(k, path);
    else if (op.kind == WorldOp::Kind::symlink)
      os::world::put_symlink(k, path, op.target);
    else
      os::world::put_file(k, path, "");
  }
  return found;
}

std::string report_of(const ScenarioSpec& spec) {
  CampaignOptions opts;
  opts.seed = 7;
  return render_json(
      Campaign(compile_spec(spec, apps::spec_environment())).execute(opts));
}

TEST(ImplicitDirs, DeclaringEveryImplicitAncestorRootChangesNoReportByte) {
  std::size_t specs_with_implicit = 0;
  for (const std::string& name : resolvable_names()) {
    SCOPED_TRACE(name);
    std::optional<ScenarioSpec> spec = apps::resolve_spec(name);
    ASSERT_TRUE(spec.has_value());
    const std::vector<std::string> dirs = implicit_dirs(*spec);
    if (dirs.empty()) continue;
    ++specs_with_implicit;

    ScenarioSpec declared = *spec;
    std::vector<WorldOp> ops;
    for (const std::string& d : dirs) {
      WorldOp op;
      op.kind = WorldOp::Kind::dir;
      op.path = d;
      op.uid = os::kRootUid;
      op.gid = os::kRootGid;
      op.mode = 0755;
      ops.push_back(op);
    }
    ops.insert(ops.end(), spec->world.begin(), spec->world.end());
    declared.world = std::move(ops);
    EXPECT_EQ(report_of(declared), report_of(*spec));
  }
  // Most specs place a file or program below a directory nobody
  // declared; the relation must actually be exercised.
  EXPECT_GT(specs_with_implicit, 100u);
}

}  // namespace
}  // namespace ep::core
