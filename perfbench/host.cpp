#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <fstream>

#include "fingerprint/md5_multilane.hpp"

namespace perfbench {

namespace {

unsigned host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

std::string filesystem_type(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    case 0x01021997: return "9p";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

}  // namespace

double peak_rss_mb() {
  rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

void write_host(Json& json, const std::string& journal_dir) {
  json.field("peak_rss_mb", peak_rss_mb());
  json.key("host").begin_object();
  json.field("nproc", host_nproc());
  json.field("md5_backend",
             tls::fp::to_string(tls::fp::md5_active_backend()));
  json.field("compiler", PERFBENCH_COMPILER);
  json.field("build_type", PERFBENCH_BUILD_TYPE);
  json.field("journal_fs", filesystem_type(journal_dir));
  json.end_object();
}

}  // namespace perfbench
