// The declarative scenario spec codec (core/scenario_spec.hpp,
// docs/SCENARIO_AUTHORING.md): canonical round trip — parse(serialize(s))
// re-serializes to the same bytes — plus one test per malformed-spec
// error path. The reader is strict by design: a typo'd key, a wrong
// type, or an unknown enum value must raise a WireError naming the
// offending field (or the line/column for syntax errors), never silently
// mean "default".
#include "core/scenario_spec.hpp"

#include <gtest/gtest.h>

#include "apps/scenarios.hpp"
#include "apps/spec_env.hpp"
#include "core/planner.hpp"
#include "core/wire.hpp"

namespace ep::core {
namespace {

/// The message of the WireError `fn` must throw.
template <typename Fn>
std::string spec_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const WireError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected WireError";
  return {};
}

std::string parse_error(const std::string& text) {
  return spec_error_of([&] { (void)spec_from_json(text); });
}

TEST(ScenarioSpecTest, CanonicalRoundTripForEveryResolvableSpec) {
  // Every packaged, demo, and generated spec must survive
  // serialize -> parse -> serialize byte-identically: the serializer
  // output is the canonical encoding --scenario-file consumers and the
  // authoring docs rely on.
  std::vector<std::string> names = {"lpr",     "turnin",       "mailer",
                                    "logind",  "netcpd",       "cronhelpd",
                                    "rshd",    "journald",     "vault",
                                    "nt-fontcleanup", "redzone-demo",
                                    "fam-spool-d2-open-setuid-tight",
                                    "fam-relay-m2-closed-checked-b16",
                                    "fam-regchain-c3-exec-open-root"};
  for (const auto& name : names) {
    auto spec = apps::resolve_spec(name);
    ASSERT_TRUE(spec.has_value()) << name;
    std::string once = spec_to_json(*spec);
    ScenarioSpec parsed = spec_from_json(once);
    EXPECT_EQ(once, spec_to_json(parsed)) << name;
    EXPECT_EQ(parsed.name, name);
  }
}

TEST(ScenarioSpecTest, ParsedSpecCompilesToTheSameScenario) {
  // The round-tripped spec compiles into a scenario whose plan equals
  // the original's — the spec file really is the whole scenario.
  auto spec = apps::resolve_spec("rshd");
  ASSERT_TRUE(spec.has_value());
  ScenarioSpec reparsed = spec_from_json(spec_to_json(*spec));
  Scenario a = compile_spec(*spec, apps::spec_environment());
  Scenario b = compile_spec(reparsed, apps::spec_environment());
  CampaignOptions opts;
  opts.use_world_cache = false;
  EXPECT_EQ(Planner(a).plan(opts).to_json(), Planner(b).plan(opts).to_json());
}

TEST(ScenarioSpecTest, SyntaxErrorCarriesLineAndColumn) {
  std::string err = parse_error("{\n  \"kind\": \"scenario-spec\",\n  !\n}");
  EXPECT_NE(err.find("scenario spec"), std::string::npos) << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("column"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, TruncatedDocumentCarriesLineAndColumn) {
  std::string err = parse_error("{\"kind\": \"scenario-spec\",");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsNonObjectTopLevel) {
  std::string err = parse_error("[1, 2, 3]\n");
  EXPECT_NE(err.find("top level"), std::string::npos) << err;
  EXPECT_NE(err.find("expected an object"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsMissingKind) {
  std::string err = parse_error("{\"schema_version\": 1, \"name\": \"x\"}");
  EXPECT_NE(err.find("missing required key \"kind\""), std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, RejectsWrongKind) {
  std::string err = parse_error(
      "{\"kind\": \"injection-plan\", \"schema_version\": 1, "
      "\"name\": \"x\"}");
  EXPECT_NE(err.find("expected \"scenario-spec\""), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsFutureSchemaVersion) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 999, "
      "\"name\": \"x\"}");
  EXPECT_NE(err.find("unsupported version 999"), std::string::npos) << err;
  EXPECT_NE(err.find("reads up to"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsEmptyName) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"\"}");
  EXPECT_NE(err.find("name"), std::string::npos) << err;
  EXPECT_NE(err.find("must not be empty"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsUnknownTopLevelKey) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"wrold\": []}");
  EXPECT_NE(err.find("unknown key \"wrold\""), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsWrongTypeForUsers) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"users\": \"alice\"}");
  EXPECT_NE(err.find("users"), std::string::npos) << err;
  EXPECT_NE(err.find("expected an array"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsUserMissingUid) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"users\": [{\"name\": \"alice\", \"gid\": 7}]}");
  EXPECT_NE(err.find("users[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("missing required key \"uid\""), std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, RejectsUidOutOfRange) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"users\": "
      "[{\"uid\": -1, \"name\": \"alice\", \"gid\": 7}]}");
  EXPECT_NE(err.find("users[0].uid"), std::string::npos) << err;
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsUidThatIsNotA64BitInteger) {
  // A number the JSON layer cannot read as an integer is still a spec
  // error naming the field, not a bare "integer out of range".
  for (const char* uid : {"1.5", "18446744073709551616"}) {
    std::string err = parse_error(
        std::string("{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
                    "\"name\": \"x\", \"users\": [{\"uid\": ") +
        uid + ", \"name\": \"alice\", \"gid\": 7}]}");
    EXPECT_NE(err.find("scenario spec: users[0].uid: "), std::string::npos)
        << uid << ": " << err;
  }
}

TEST(ScenarioSpecTest, RejectsUnknownWorldOp) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"world\": [{\"op\": \"device\", "
      "\"path\": \"/dev/null\", \"uid\": 0, \"gid\": 0, "
      "\"mode\": \"0644\"}]}");
  EXPECT_NE(err.find("world[0].op"), std::string::npos) << err;
  EXPECT_NE(err.find("unknown world op \"device\""), std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, RejectsNonOctalMode) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"world\": [{\"op\": \"dir\", \"path\": \"/a\", "
      "\"uid\": 0, \"gid\": 0, \"mode\": \"rwxr-xr-x\"}]}");
  EXPECT_NE(err.find("world[0].mode"), std::string::npos) << err;
  EXPECT_NE(err.find("octal"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, RejectsFileOpWithoutContent) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"world\": [{\"op\": \"file\", \"path\": \"/a\", "
      "\"uid\": 0, \"gid\": 0, \"mode\": \"0644\"}]}");
  EXPECT_NE(err.find("world[0]"), std::string::npos) << err;
  EXPECT_NE(err.find("missing required key \"content\""), std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, RejectsUnknownChannelKind) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"network\": {\"hosts\": [], \"services\": "
      "[{\"name\": \"s\", \"channel\": \"carrier-pigeon\", "
      "\"available\": true, \"trusted\": true, \"handler\": \"h\"}]}}");
  EXPECT_NE(err.find("unknown channel \"carrier-pigeon\""),
            std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, RejectsUnknownSiteKind) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"sites\": [{\"tag\": \"t\", "
      "\"kind\": \"quantum\", \"faults\": [], \"not_applicable\": {}, "
      "\"skip\": false}]}");
  EXPECT_NE(err.find("unknown object kind \"quantum\""), std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, RejectsUnknownInputSemantic) {
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"sites\": [{\"tag\": \"t\", \"kind\": \"file\", "
      "\"semantic\": \"astrology\", \"faults\": [], "
      "\"not_applicable\": {}, \"skip\": false}]}");
  EXPECT_NE(err.find("unknown input semantic \"astrology\""),
            std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, RejectsDuplicateSiteTag) {
  std::string site =
      "{\"tag\": \"t\", \"kind\": \"file\", \"faults\": [], "
      "\"not_applicable\": {}, \"skip\": false}";
  std::string err = parse_error(
      "{\"kind\": \"scenario-spec\", \"schema_version\": 1, "
      "\"name\": \"x\", \"sites\": [" + site + ", " + site + "]}");
  EXPECT_NE(err.find("duplicate site tag \"t\""), std::string::npos) << err;
}

// ---- compile-time validation (spec -> Scenario) ---------------------------

TEST(ScenarioSpecTest, CompileRejectsEmptyRunRecipe) {
  ScenarioSpec s;
  s.name = "x";
  std::string err = spec_error_of(
      [&] { (void)compile_spec(s, apps::spec_environment()); });
  EXPECT_NE(err.find("run recipe is empty"), std::string::npos) << err;
}

TEST(ScenarioSpecTest, CompileRejectsUnknownImage) {
  ScenarioSpec s;
  s.name = "x";
  s.images = {"no-such-image"};
  s.run.push_back({"/bin/x", {"x"}, 0, 0, {}, "/"});
  std::string err = spec_error_of(
      [&] { (void)compile_spec(s, apps::spec_environment()); });
  EXPECT_NE(err.find("unknown image \"no-such-image\""), std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, CompileRejectsProgramOpWithUnregisteredImage) {
  ScenarioSpec s;
  s.name = "x";
  s.world.push_back(spec_builders::program_op("/bin/x", "lpr"));
  s.run.push_back({"/bin/x", {"x"}, 0, 0, {}, "/"});
  std::string err = spec_error_of(
      [&] { (void)compile_spec(s, apps::spec_environment()); });
  EXPECT_NE(err.find("references image \"lpr\""), std::string::npos) << err;
}

TEST(ScenarioSpecTest, CompileRejectsUnknownHandler) {
  ScenarioSpec s;
  s.name = "x";
  SpecService svc;
  svc.name = "authsvc";
  svc.handler = "no-such-handler";
  s.network.services.push_back(svc);
  s.run.push_back({"/bin/x", {"x"}, 0, 0, {}, "/"});
  std::string err = spec_error_of(
      [&] { (void)compile_spec(s, apps::spec_environment()); });
  EXPECT_NE(err.find("unknown handler \"no-such-handler\""),
            std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, CompileRejectsUnknownFaultName) {
  ScenarioSpec s;
  s.name = "x";
  s.run.push_back({"/bin/x", {"x"}, 0, 0, {}, "/"});
  SiteSpec site;
  site.faults = {"no-such-fault"};
  s.sites.emplace_back("tag", site);
  std::string err = spec_error_of(
      [&] { (void)compile_spec(s, apps::spec_environment()); });
  EXPECT_NE(err.find("unknown fault \"no-such-fault\""), std::string::npos)
      << err;
}

TEST(ScenarioSpecTest, CompiledScenariosAreAlwaysSnapshotSafe) {
  auto spec = apps::resolve_spec("lpr");
  ASSERT_TRUE(spec.has_value());
  Scenario s = compile_spec(*spec, apps::spec_environment());
  EXPECT_TRUE(s.snapshot_safe);
}

}  // namespace
}  // namespace ep::core
