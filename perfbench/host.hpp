// Host descriptor printed with every result: which machine, build and
// filesystem a number was measured on.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// Writes into an open JSON object the host fields (nproc from the affinity
/// mask, the active MD5 backend, compiler, build type, and the filesystem
/// type of `journal_dir`) and this process's peak RSS in MB.
void write_host(Json& json, const std::string& journal_dir);

/// This process's peak RSS so far (getrusage), MB.
double peak_rss_mb();

/// Peak RSS of this process image since its exec (VmHWM), MB. Unlike
/// getrusage(), it carries nothing over from the process that spawned it.
double vm_hwm_mb();

}  // namespace perfbench
