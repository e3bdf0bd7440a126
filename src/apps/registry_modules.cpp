#include "apps/registry_modules.hpp"

#include "apps/spec_env.hpp"
#include "apps/fixed_buffer.hpp"
#include "apps/payloads.hpp"
#include "os/world.hpp"
#include "util/strings.hpp"

namespace ep::apps {

using os::OpenFlag;
using os::Site;

namespace {

constexpr os::Uid kAdmin = 500;
constexpr os::Uid kMallory = 666;

// Key paths (stand-ins for the withheld real names).
constexpr const char* kKeyFontCleanup = "HKLM/Software/FontCleanupList";
constexpr const char* kKeyLogonProfile = "HKLM/Software/LogonProfileDir";
constexpr const char* kKeyScreensaver = "HKLM/Software/ScreensaverPath";
constexpr const char* kKeyHelpViewer = "HKLM/Software/HelpViewerFile";
constexpr const char* kKeyWallpaper = "HKLM/Software/WallpaperFile";
constexpr const char* kKeyUpdateLog = "HKLM/Software/UpdateLogPath";
constexpr const char* kKeySpoolDir = "HKLM/Software/SpoolDirectory";
constexpr const char* kKeyAeDebug = "HKLM/Software/AeDebugCommand";
constexpr const char* kKeyTempClean = "HKLM/Software/TempCleanupDir";

// --- the nine module images ---------------------------------------------------

// Each module follows the pattern the paper describes: read a key every
// user may write, then act on the value with SYSTEM privilege.

int fontcleanup_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"fontcleanup.c", 10, "regread-fontlist"};
  const Site kDel{"fontcleanup.c", 20, "unlink-fontfile"};
  const Site kSay{"fontcleanup.c", 30, "fontcleanup-status"};
  auto v = r.read_value(k, kRead, pid, kKeyFontCleanup);
  if (!v.ok() || v.value().empty()) {
    k.output(kSay, pid, "fontcleanup: nothing to clean");
    return 0;
  }
  // "a module in the system that invokes a function call to actually
  // delete this file" — no check that it still names a font.
  if (!k.unlink(kDel, pid, v.value()).ok()) {
    k.output(kSay, pid, "fontcleanup: cannot delete " + v.value());
    return 1;
  }
  k.output(kSay, pid, "fontcleanup: removed " + v.value());
  return 0;
}

int logonprofile_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"logonprofile.c", 10, "regread-profiledir"};
  const Site kIni{"logonprofile.c", 20, "open-profile-ini"};
  const Site kExec{"logonprofile.c", 40, "exec-logonscript"};
  const Site kSay{"logonprofile.c", 50, "logonprofile-status"};
  auto dir = r.read_value(k, kRead, pid, kKeyLogonProfile);
  if (!dir.ok()) return 1;
  auto fd = k.open(kIni, pid, dir.value() + "/ntuser.ini", OpenFlag::rd);
  if (!fd.ok()) {
    k.output(kSay, pid, "logonprofile: no profile found");
    return 1;
  }
  auto content = k.read(kIni, pid, fd.value());
  (void)k.close(pid, fd.value());
  if (!content.ok()) return 1;
  std::string script;
  for (const auto& line : ep::split(content.value(), '\n'))
    if (ep::starts_with(line, "logonscript="))
      script = line.substr(std::string("logonscript=").size());
  if (script.empty()) {
    k.output(kSay, pid, "logonprofile: profile has no logon script");
    return 1;
  }
  // "whenever a user logons, the logon module will go to the ...
  // directory, and grab a specified profile for you" — and run it.
  auto rc = k.exec(kExec, pid, script, {script});
  k.output(kSay, pid, "logonprofile: ran " + script);
  return rc.ok() ? rc.value() : 1;
}

int screensaver_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"screensaver.c", 10, "regread-scrpath"};
  const Site kExec{"screensaver.c", 20, "exec-screensaver"};
  const Site kSay{"screensaver.c", 30, "screensaver-status"};
  auto v = r.read_value(k, kRead, pid, kKeyScreensaver);
  if (!v.ok() || v.value().empty()) return 1;
  auto rc = k.exec(kExec, pid, v.value(), {v.value()});
  if (!rc.ok()) {
    k.output(kSay, pid, "screensaver: cannot start " + v.value());
    return 1;
  }
  return 0;
}

int helpviewer_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"helpviewer.c", 10, "regread-helpfile"};
  const Site kOpen{"helpviewer.c", 20, "open-helpfile"};
  const Site kSay{"helpviewer.c", 30, "helpviewer-status"};
  auto v = r.read_value(k, kRead, pid, kKeyHelpViewer);
  if (!v.ok()) return 1;
  auto fd = k.open(kOpen, pid, v.value(), OpenFlag::rd);
  if (!fd.ok()) {
    k.output(kSay, pid, "helpviewer: cannot open " + v.value());
    return 1;
  }
  auto content = k.read(kOpen, pid, fd.value());
  (void)k.close(pid, fd.value());
  if (!content.ok()) return 1;
  // The viewer displays whatever the key names.
  k.output(kOpen, pid, content.value());
  return 0;
}

int wallpaper_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"wallpaper.c", 10, "regread-wallpaper"};
  const Site kOpen{"wallpaper.c", 20, "open-wallpaper"};
  const Site kSay{"wallpaper.c", 30, "wallpaper-status"};
  auto v = r.read_value(k, kRead, pid, kKeyWallpaper);
  if (!v.ok()) return 1;
  // Path copied into a fixed name buffer without a bound check.
  FixedBuffer pathbuf(k, pid, kRead, 256);
  pathbuf.copy_unchecked(v.value());
  auto fd = k.open(kOpen, pid, pathbuf.str(), OpenFlag::rd);
  if (!fd.ok()) {
    k.output(kSay, pid, "wallpaper: cannot load " + pathbuf.str());
    return 1;
  }
  (void)k.read(kOpen, pid, fd.value());
  (void)k.close(pid, fd.value());
  k.output(kSay, pid, "wallpaper: loaded " + pathbuf.str());
  return 0;
}

int updater_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"updater.c", 10, "regread-logpath"};
  const Site kLog{"updater.c", 20, "append-updatelog"};
  const Site kSay{"updater.c", 30, "updater-status"};
  auto v = r.read_value(k, kRead, pid, kKeyUpdateLog);
  if (!v.ok()) return 1;
  auto fd = k.open(kLog, pid, v.value(),
                   OpenFlag::wr | OpenFlag::creat | OpenFlag::append, 0644);
  if (!fd.ok()) {
    k.output(kSay, pid, "updater: cannot log to " + v.value());
    return 1;
  }
  (void)k.write(kLog, pid, fd.value(), "update check: all components ok\n");
  (void)k.close(pid, fd.value());
  return 0;
}

int spooler_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"spooler.c", 10, "regread-spooldir"};
  const Site kSpool{"spooler.c", 20, "create-spoolfile"};
  const Site kSay{"spooler.c", 30, "spooler-status"};
  auto v = r.read_value(k, kRead, pid, kKeySpoolDir);
  if (!v.ok()) return 1;
  auto fd = k.open(kSpool, pid, v.value() + "/spool001.tmp",
                   OpenFlag::wr | OpenFlag::creat | OpenFlag::trunc, 0600);
  if (!fd.ok()) {
    k.output(kSay, pid, "spooler: cannot spool under " + v.value());
    return 1;
  }
  (void)k.write(kSpool, pid, fd.value(), "spooled print job\n");
  (void)k.close(pid, fd.value());
  return 0;
}

int aedebug_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"aedebug.c", 10, "regread-debugger"};
  const Site kExec{"aedebug.c", 20, "exec-debugger"};
  const Site kSay{"aedebug.c", 30, "aedebug-status"};
  auto v = r.read_value(k, kRead, pid, kKeyAeDebug);
  if (!v.ok() || v.value().empty()) return 1;
  // A process crashed; launch the configured post-mortem debugger.
  auto rc = k.exec(kExec, pid, v.value(), {v.value(), "-p", "1234"});
  if (!rc.ok()) {
    k.output(kSay, pid, "aedebug: cannot start debugger");
    return 1;
  }
  return 0;
}

int tempclean_main(os::Kernel& k, os::Pid pid, reg::Registry& r) {
  const Site kRead{"tempclean.c", 10, "regread-tempdir"};
  const Site kClean{"tempclean.c", 20, "unlink-tempfiles"};
  const Site kSay{"tempclean.c", 30, "tempclean-status"};
  auto v = r.read_value(k, kRead, pid, kKeyTempClean);
  if (!v.ok()) return 1;
  auto names = k.readdir(kClean, pid, v.value());
  if (!names.ok()) {
    k.output(kSay, pid, "tempclean: cannot list " + v.value());
    return 1;
  }
  int removed = 0;
  for (const auto& name : names.value())
    if (k.unlink(kClean, pid, v.value() + "/" + name).ok()) ++removed;
  k.output(kSay, pid,
           "tempclean: removed " + std::to_string(removed) + " file(s)");
  return 0;
}

}  // namespace

std::vector<NtModuleInfo> nt_modules() {
  return {
      {"fontcleanup", kKeyFontCleanup,
       "deletes the file the key names (the paper's font-file module)"},
      {"logonprofile", kKeyLogonProfile,
       "loads the logon profile from the key-named directory (the paper's "
       "logon module)"},
      {"screensaver", kKeyScreensaver, "executes the key-named binary"},
      {"helpviewer", kKeyHelpViewer, "displays the key-named file"},
      {"wallpaper", kKeyWallpaper,
       "copies the key value into a fixed buffer and loads the file"},
      {"updater", kKeyUpdateLog, "appends its log to the key-named path"},
      {"spooler", kKeySpoolDir, "creates spool files in the key-named dir"},
      {"aedebug", kKeyAeDebug,
       "runs the key-named post-mortem debugger on crashes"},
      {"tempclean", kKeyTempClean,
       "recursively deletes the key-named directory's entries"},
  };
}

std::vector<std::pair<std::string, os::AppImage>> nt_module_images() {
  using ModuleFn = int (*)(os::Kernel&, os::Pid, reg::Registry&);
  // The image looks the registry up through its own kernel (clone-safe;
  // see Kernel::attach_substrates).
  static constexpr std::pair<const char*, ModuleFn> kMods[] = {
      {"fontcleanup", fontcleanup_main},
      {"logonprofile", logonprofile_main},
      {"screensaver", screensaver_main},
      {"helpviewer", helpviewer_main},
      {"wallpaper", wallpaper_main},
      {"updater", updater_main},
      {"spooler", spooler_main},
      {"aedebug", aedebug_main},
      {"tempclean", tempclean_main},
  };
  std::vector<std::pair<std::string, os::AppImage>> out;
  for (const auto& [name, fn] : kMods)
    out.emplace_back(name, [fn](os::Kernel& kk, os::Pid p) {
      return fn(kk, p, *kk.registry());
    });
  return out;
}

int nt_benign_cmd_image(os::Kernel& k, os::Pid pid) {
  k.output(Site{"benign.c", 1, "benign-run"}, pid, "benign helper ran");
  return 0;
}

core::ScenarioSpec nt_module_spec(const std::string& module) {
  namespace sb = core::spec_builders;
  core::ScenarioSpec s;
  s.name = "nt-" + module;
  for (const auto& m : nt_modules())
    if (m.module == module) s.description = m.what;
  s.trace_unit_filter = module + ".c";
  s.standard_unix = false;  // NT-flavored tree, no /etc skeleton
  s.users.push_back({os::kRootUid, "SYSTEM", os::kRootGid});
  s.users.push_back({kAdmin, "administrator", kAdmin});
  for (const auto& m : nt_modules()) s.images.push_back(m.module);
  s.images.emplace_back("nt-benign-cmd");
  sb::add_payload_images(s);

  s.world.push_back(sb::dir_op("/winnt/system32/config"));
  s.world.push_back(sb::file_op(kNtSam,
                                "SAM-REGISTRY-HIVE administrator:0x1f4:"
                                "SECRET-NT-PASSWORD-HASHES\n",
                                os::kRootUid, os::kRootGid, 0600));
  s.world.push_back(
      sb::file_op(kNtCritical, "[boot]\nshell=explorer.exe\nsecure=yes\n"));
  s.world.push_back(sb::dir_op("/winnt/fonts"));
  s.world.push_back(sb::file_op("/winnt/fonts/stale.fon", "old font data",
                                kAdmin, kAdmin, 0664));
  s.world.push_back(sb::dir_op("/winnt/help"));
  s.world.push_back(sb::file_op("/winnt/help/index.hlp",
                                "help topics: printing, networking\n"));
  s.world.push_back(sb::file_op("/winnt/wall.bmp", "BMPDATA"));
  s.world.push_back(sb::dir_op("/winnt/logs"));
  s.world.push_back(sb::file_op("/winnt/logs/update.log", "log start\n",
                                os::kRootUid, os::kRootGid, 0666));
  s.world.push_back(
      sb::dir_op("/winnt/spool", os::kRootUid, os::kRootGid, 0777));
  s.world.push_back(
      sb::dir_op("/winnt/temp", os::kRootUid, os::kRootGid, 0777));
  s.world.push_back(
      sb::file_op("/winnt/temp/scratch1.tmp", "x", kAdmin, kAdmin, 0666));
  s.world.push_back(
      sb::file_op("/winnt/temp/scratch2.tmp", "y", kAdmin, kAdmin, 0666));
  s.world.push_back(sb::dir_op("/winnt/profiles/default"));
  s.world.push_back(sb::file_op("/winnt/profiles/default/ntuser.ini",
                                "wallpaper=wall.bmp\nlogonscript=/winnt/"
                                "system32/logon.cmd\n"));

  // Attacker staging (any user can reach /tmp).
  sb::add_attacker(s, /*with_evil=*/true);
  s.world.push_back(
      sb::dir_op("/tmp/attacker/profile", kMallory, kMallory, 0755));
  s.world.push_back(sb::file_op("/tmp/attacker/profile/ntuser.ini",
                                "logonscript=/tmp/attacker/evil\n", kMallory,
                                kMallory, 0644));

  // Benign system binaries the modules act on, then the module services
  // themselves, installed set-uid SYSTEM.
  s.world.push_back(sb::program_op("/winnt/system32/logon.cmd", "benign-cmd"));
  s.world.push_back(
      sb::program_op("/winnt/system32/ssmarquee.scr", "benign-cmd"));
  s.world.push_back(
      sb::program_op("/winnt/system32/drwtsn32.exe", "benign-cmd"));
  for (const auto& m : nt_modules())
    s.world.push_back(sb::program_op("/winnt/system32/" + m.module + ".exe",
                                     m.module, os::kRootUid, os::kRootGid,
                                     0755 | os::kSetUidBit));

  // The registry: 9 everyone-write keys with known modules, 20 without,
  // 15 properly protected. 29 unprotected total — the scan result the
  // paper reports.
  for (const auto& m : nt_modules()) {
    core::SpecRegistryKey key;
    key.path = m.key;
    key.owner = kAdmin;
    key.everyone_write = true;
    key.used_by_module = m.module;
    if (m.module == "fontcleanup") key.value = "/winnt/fonts/stale.fon";
    if (m.module == "logonprofile") key.value = "/winnt/profiles/default";
    if (m.module == "screensaver")
      key.value = "/winnt/system32/ssmarquee.scr";
    if (m.module == "helpviewer") key.value = "/winnt/help/index.hlp";
    if (m.module == "wallpaper") key.value = "/winnt/wall.bmp";
    if (m.module == "updater") key.value = "/winnt/logs/update.log";
    if (m.module == "spooler") key.value = "/winnt/spool";
    if (m.module == "aedebug") key.value = "/winnt/system32/drwtsn32.exe";
    if (m.module == "tempclean") key.value = "/winnt/temp";
    s.registry.push_back(std::move(key));
  }
  for (int i = 1; i <= 20; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "HKLM/Software/Unknown%02d", i);
    core::SpecRegistryKey key;
    key.path = buf;
    key.value = "opaque-value-" + std::to_string(i);
    key.owner = kAdmin;
    key.everyone_write = true;
    s.registry.push_back(std::move(key));
  }
  for (int i = 1; i <= 15; ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "HKLM/Secure/Protected%02d", i);
    core::SpecRegistryKey key;
    key.path = buf;
    key.value = "locked-down";
    key.owner = kAdmin;
    s.registry.push_back(std::move(key));
  }

  s.run.push_back({"/winnt/system32/" + module + ".exe", {module}, kAdmin,
                   kAdmin, {}, "/"});
  s.policy.write_sanction_roots = {"/winnt/spool", "/winnt/logs",
                                   "/winnt/temp"};
  s.policy.secret_files = {kNtSam};
  s.hints.symlink_victim = kNtCritical;
  s.hints.secret_victim = kNtSam;
  s.hints.dir_victim = "/winnt/system32";

  // Key-value tampering payloads: where an attacker would point each key.
  s.hints.content_payloads["regread-fontlist"] = kNtCritical;
  s.hints.content_payloads["regread-profiledir"] = "/tmp/attacker/profile";
  s.hints.content_payloads["regread-scrpath"] = "/tmp/attacker/evil";
  s.hints.content_payloads["regread-helpfile"] = kNtSam;
  s.hints.content_payloads["regread-wallpaper"] = kNtSam;
  s.hints.content_payloads["regread-logpath"] = kNtCritical;
  s.hints.content_payloads["regread-spooldir"] = "/winnt/system32";
  s.hints.content_payloads["regread-debugger"] = "/tmp/attacker/evil";
  s.hints.content_payloads["regread-tempdir"] = "/winnt/system32";
  // Profile tampering: the ini line that redirects the logon script.
  s.hints.content_payloads["open-profile-ini"] =
      "logonscript=/tmp/attacker/evil\n";
  return s;
}

core::Scenario nt_module_scenario(const std::string& module) {
  return core::compile_spec(nt_module_spec(module), spec_environment());
}

std::unique_ptr<core::TargetWorld> nt_registry_world() {
  // Every module spec describes the same world; compile any one of them.
  return nt_module_scenario("fontcleanup").build();
}

}  // namespace ep::apps
