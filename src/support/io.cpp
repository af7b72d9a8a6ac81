#include "support/io.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace selcache::support {

std::string WriteStatus::message() const {
  if (ok()) return {};
  return stage + ": " + (error.empty() ? "unknown error" : error);
}

std::function<bool(const std::string&, const char*)>& write_fault_hook() {
  static std::function<bool(const std::string&, const char*)> hook;
  return hook;
}

namespace {

WriteStatus fail(const char* stage, const char* detail = nullptr) {
  WriteStatus s;
  s.stage = stage;
  s.error = detail != nullptr ? detail
            : errno != 0     ? std::strerror(errno)
                             : "unknown error";
  return s;
}

/// One Bernoulli consult of the fault hook; true = simulate failure here.
bool hook_fires(const std::string& path, const char* stage) {
  auto& hook = write_fault_hook();
  return hook && hook(path, stage);
}

}  // namespace

AtomicFile::AtomicFile(std::string path) : path_(std::move(path)) {
  // Unique .tmp sibling: concurrent writers of the same target never stomp
  // each other's temporary, and a lost rename race is harmless.
  static std::atomic<std::uint64_t> seq{0};
  tmp_ = path_ + ".tmp" +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  errno = 0;
  if (hook_fires(path_, "open")) {
    status_ = fail("open", "injected fault");
    return;
  }
  f_ = std::fopen(tmp_.c_str(), "wb");
  if (f_ == nullptr) status_ = fail("open");
}

AtomicFile::~AtomicFile() {
  if (f_ == nullptr) return;
  std::fclose(f_);
  std::remove(tmp_.c_str());
}

void AtomicFile::abandon(const char* stage, const char* detail) {
  status_ = fail(stage, detail);
  std::fclose(f_);
  f_ = nullptr;
  std::remove(tmp_.c_str());
}

bool AtomicFile::append(std::string_view data) {
  if (f_ == nullptr) return false;
  if (hook_fires(path_, "write")) {
    abandon("write", "injected fault");
    return false;
  }
  if (!data.empty() &&
      std::fwrite(data.data(), 1, data.size(), f_) != data.size()) {
    abandon("write");
    return false;
  }
  return true;
}

WriteStatus AtomicFile::commit(const WriteOptions& opt) {
  if (f_ == nullptr) return status_;
  // fflush pushes libc buffers to the kernel and is where ENOSPC on a full
  // filesystem typically surfaces for buffered writes.
  if (hook_fires(path_, "flush")) {
    abandon("flush", "injected fault");
    return status_;
  }
  if (std::fflush(f_) != 0) {
    abandon("flush");
    return status_;
  }

#ifndef _WIN32
  if (opt.sync) {
    if (hook_fires(path_, "fsync")) {
      abandon("fsync", "injected fault");
      return status_;
    }
    if (::fsync(::fileno(f_)) != 0) {
      abandon("fsync");
      return status_;
    }
  }
#endif

  std::FILE* f = f_;
  f_ = nullptr;
  if (std::fclose(f) != 0) {
    std::remove(tmp_.c_str());
    return status_ = fail("flush");  // close flushes the last buffer; alike
  }

  errno = 0;
  if (hook_fires(path_, "rename")) {
    std::remove(tmp_.c_str());
    return status_ = fail("rename", "injected fault");
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    status_ = fail("rename");
    std::remove(tmp_.c_str());
  }
  return status_;
}

WriteStatus write_file_atomic(const std::string& path, const std::string& data,
                              const WriteOptions& opt) {
  AtomicFile f(path);
  f.append(data);
  return f.commit(opt);
}

}  // namespace selcache::support
