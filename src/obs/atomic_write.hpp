#pragma once

/// \file atomic_write.hpp
/// Crash-safe artifact writes.
///
/// Every JSON/CSV artifact of the toolchain (run records, ResultSet sinks,
/// trace and metrics dumps) used to be written by opening
/// the destination with std::ofstream — truncating in place — so a crash,
/// an OOM kill or a full disk mid-write left a corrupt half-file that
/// `dpma_cli report` and json_check later choked on, and a short write
/// still exited 0.  atomic_write() closes both holes: the bytes go to a
/// temporary file in the destination directory, are fully written and
/// fsync(2)'d, and only then rename(2)'d over the destination.  Readers see
/// either the complete old artifact or the complete new one, never a mix,
/// and every syscall's result is checked — a failure throws core Error with
/// the path in the message instead of silently truncating.

#include <string>
#include <string_view>

namespace dpma::obs {

/// Atomically replaces the file at \p path with \p text: write to
/// "<path>.tmp.<pid>" in the same directory, fsync, rename over \p path.
/// Throws core Error naming the path (and errno) on any failure; the
/// temporary file is unlinked before throwing, so no debris is left behind.
void atomic_write(const std::string& path, std::string_view text);

}  // namespace dpma::obs
