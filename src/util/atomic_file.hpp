// Crash-safe file persistence primitives.
//
// Every cache this project writes (accuracy memo CSV, pretrained trunk
// weights) can be interrupted mid-write by a process
// kill, and re-read by a later run that must not be poisoned by the torn
// state. The building blocks here are the classic trio: tmp-file + rename
// atomic publication (POSIX rename within a directory is atomic), a
// versioned checksum header so corruption is *detected* instead of parsed,
// and quarantine-by-rename so a bad file is preserved for inspection while
// the caller recomputes.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace netcut::util {

/// FNV-1a 64-bit hash over a byte range (checksum for cache payloads and
/// accuracy-memo rows; not cryptographic).
std::uint64_t fnv1a64(const void* data, std::size_t n);
std::uint64_t fnv1a64(std::string_view s);

/// Thrown when a checked file exists but fails header/size/checksum
/// validation. Callers quarantine and recompute instead of trusting it.
class CorruptFileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes `content` to `path` atomically: the bytes land in a sibling tmp
/// file which is then renamed over the target, so readers see either the
/// old file or the complete new one, never a torn prefix.
void atomic_write_text(const std::string& path, std::string_view content);

/// Atomic write of a binary payload wrapped in a validation header
/// {magic, version, payload length, FNV-1a checksum}.
void atomic_write_checked(const std::string& path, std::string_view payload,
                          std::uint32_t magic, std::uint32_t version);

/// Reads a checked file written by atomic_write_checked. Returns nullopt
/// when the file does not exist; throws CorruptFileError when the header,
/// length, or checksum does not validate (truncated or bit-flipped file).
std::optional<std::string> read_checked(const std::string& path, std::uint32_t magic,
                                        std::uint32_t version);

/// Renames `path` aside to the first free "<path>.quarantined[.N]" so a
/// corrupt cache is kept for post-mortem but never re-read. Returns the
/// quarantine path.
std::string quarantine_file(const std::string& path);

}  // namespace netcut::util
