#include "util/atomic_file.hpp"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

namespace netcut::util {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view s) { return fnv1a64(s.data(), s.size()); }

namespace {

/// Sibling tmp path in the target's directory (rename across filesystems is
/// not atomic). The pid keeps concurrent writers from clobbering each
/// other's staging file.
std::string tmp_path_for(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

void publish(const std::string& tmp, const std::string& path) {
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp);
    throw std::runtime_error("atomic write: rename " + tmp + " -> " + path + " failed: " +
                             ec.message());
  }
}

}  // namespace

void atomic_write_text(const std::string& path, std::string_view content) {
  const std::string tmp = tmp_path_for(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("atomic_write_text: cannot open " + tmp);
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    if (!out) throw std::runtime_error("atomic_write_text: write failed for " + tmp);
  }
  publish(tmp, path);
}

namespace {
struct CheckedHeader {
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t payload_size = 0;
  std::uint64_t checksum = 0;
};
}  // namespace

void atomic_write_checked(const std::string& path, std::string_view payload,
                          std::uint32_t magic, std::uint32_t version) {
  CheckedHeader h;
  h.magic = magic;
  h.version = version;
  h.payload_size = payload.size();
  h.checksum = fnv1a64(payload);

  const std::string tmp = tmp_path_for(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("atomic_write_checked: cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(&h), sizeof h);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out) throw std::runtime_error("atomic_write_checked: write failed for " + tmp);
  }
  publish(tmp, path);
}

std::optional<std::string> read_checked(const std::string& path, std::uint32_t magic,
                                        std::uint32_t version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  CheckedHeader h;
  in.read(reinterpret_cast<char*>(&h), sizeof h);
  if (!in) throw CorruptFileError(path + ": truncated header");
  if (h.magic != magic) throw CorruptFileError(path + ": bad magic");
  if (h.version != version)
    throw CorruptFileError(path + ": version " + std::to_string(h.version) + ", expected " +
                           std::to_string(version));

  std::string payload(h.payload_size, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!in || static_cast<std::uint64_t>(in.gcount()) != h.payload_size)
    throw CorruptFileError(path + ": truncated payload");
  if (in.peek() != std::ifstream::traits_type::eof())
    throw CorruptFileError(path + ": trailing bytes after payload");
  if (fnv1a64(payload) != h.checksum) throw CorruptFileError(path + ": checksum mismatch");
  return payload;
}

std::string quarantine_file(const std::string& path) {
  std::string target = path + ".quarantined";
  for (int i = 1; fs::exists(target); ++i) target = path + ".quarantined." + std::to_string(i);
  std::error_code ec;
  fs::rename(path, target, ec);
  if (ec)
    throw std::runtime_error("quarantine_file: rename " + path + " -> " + target +
                             " failed: " + ec.message());
  return target;
}

}  // namespace netcut::util
