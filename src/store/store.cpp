#include "store/store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "support/check.h"
#include "support/fingerprint.h"
#include "support/io.h"
#include "tape/tape.h"

namespace fs = std::filesystem;

namespace selcache::store {

namespace {

constexpr char kCellMagic[8] = {'S', 'C', 'S', 'T', 'O', 'R', 'E', '1'};

// -- little-endian byte-buffer codec ----------------------------------------
// Explicit byte order so entries are portable; the reader is fully bounds-
// checked and reports any malformation as decode failure (-> miss).

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// Bounds-checked reader. Every get_* reports failure through ok; callers
/// check once at the end (reads after a failure return zeros).
struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;
  bool ok = true;

  bool ensure(std::size_t n) {
    if (static_cast<std::size_t>(end - p) < n) ok = false;
    return ok;
  }
  std::uint32_t get_u32() {
    if (!ensure(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(*p++) << (8 * i);
    return v;
  }
  std::uint64_t get_u64() {
    if (!ensure(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(*p++) << (8 * i);
    return v;
  }
  std::string get_str() {
    const std::uint32_t n = get_u32();
    if (!ensure(n)) return {};
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    return s;
  }
};

std::uint64_t bits_of(double d) {
  std::uint64_t v = 0;
  static_assert(sizeof(v) == sizeof(d));
  std::memcpy(&v, &d, sizeof(v));
  return v;
}

double double_of(std::uint64_t v) {
  double d = 0;
  std::memcpy(&d, &v, sizeof(d));
  return d;
}

/// Serialize one entry payload (everything the checksum covers). The key
/// is embedded so a filename-hash collision is detected at load time.
std::string encode_payload(const std::string& key, const StoredResult& r) {
  std::string p;
  put_str(p, key);
  put_u64(p, r.cycles);
  put_u64(p, r.instructions);
  put_u64(p, bits_of(r.l1_miss_rate));
  put_u64(p, bits_of(r.l2_miss_rate));
  put_u64(p, bits_of(r.conflict_share));
  put_u64(p, r.toggles);
  put_u64(p, r.stats.all().size());
  for (const auto& [k, v] : r.stats.all()) {
    put_str(p, k);
    put_u64(p, v);
  }
  return p;
}

/// Decode a payload previously produced by encode_payload. Returns nullopt
/// on any malformation, including an embedded key that is not `want_key`.
std::optional<StoredResult> decode_payload(const std::string& payload,
                                           const std::string& want_key) {
  Reader rd{reinterpret_cast<const std::uint8_t*>(payload.data()),
            reinterpret_cast<const std::uint8_t*>(payload.data()) +
                payload.size()};
  if (rd.get_str() != want_key) return std::nullopt;
  StoredResult r;
  r.cycles = rd.get_u64();
  r.instructions = rd.get_u64();
  r.l1_miss_rate = double_of(rd.get_u64());
  r.l2_miss_rate = double_of(rd.get_u64());
  r.conflict_share = double_of(rd.get_u64());
  r.toggles = rd.get_u64();
  const std::uint64_t n = rd.get_u64();
  // Counter count is bounded by the remaining bytes (each costs >= 12), so
  // a corrupt huge count fails here instead of looping.
  if (!rd.ok || n > payload.size() / 12 + 1) return std::nullopt;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = rd.get_str();
    const std::uint64_t v = rd.get_u64();
    if (!rd.ok) return std::nullopt;
    r.stats.counter(name) = v;
  }
  if (!rd.ok || rd.p != rd.end) return std::nullopt;
  return r;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t key_hash(const std::string& key) {
  return fnv1a_str(kFnv1aOffset, key);
}

/// Whole-file read; nullopt on any I/O trouble.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (!in && !in.eof()) return std::nullopt;
  return data;
}

std::int64_t mtime_seconds(const fs::path& p) {
  std::error_code ec;
  const auto t = fs::last_write_time(p, ec);
  if (ec) return 0;
  return std::chrono::duration_cast<std::chrono::seconds>(
             t.time_since_epoch())
      .count();
}

std::uint64_t file_bytes(const fs::path& p) {
  std::error_code ec;
  const auto n = fs::file_size(p, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// First line of a tape .key sidecar (the tape's cache key), or empty.
std::string read_key_sidecar(const fs::path& p) {
  std::ifstream in(p);
  std::string key;
  if (!in || !std::getline(in, key)) return {};
  return key;
}

/// A saved tape, or nullopt when the file is missing, truncated or corrupt.
std::optional<tape::Tape> load_tape_or_miss(const std::string& path) {
  try {
    return tape::load_tape(path);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

ResultStore::ResultStore(std::string dir)
    : ResultStore(std::move(dir), Options{}) {}

ResultStore::ResultStore(std::string dir, Options opt)
    : dir_(std::move(dir)), opt_(opt) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "cells", ec);
  SELCACHE_CHECK_MSG(!ec, "cannot create store directory " + dir_);
  fs::create_directories(fs::path(dir_) / "tapes", ec);
  SELCACHE_CHECK_MSG(!ec, "cannot create store directory " + dir_);
}

std::string ResultStore::cell_path(const std::string& key) const {
  return (fs::path(dir_) / "cells" / (hex16(key_hash(key)) + ".cell"))
      .string();
}

void ResultStore::count(std::uint64_t StoreCounters::* field) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(counters_.*field);
}

StoreCounters ResultStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::optional<StoredResult> ResultStore::load(const std::string& key) {
  const std::optional<std::string> data = read_file(cell_path(key));
  if (!data) {  // absent: a plain miss, not corruption
    count(&StoreCounters::misses);
    return std::nullopt;
  }
  // Header: magic, format version, payload length, payload checksum. Any
  // mismatch — truncation, stale version, bad checksum, wrong embedded
  // key — rejects the entry as a miss. Never throws.
  Reader rd{reinterpret_cast<const std::uint8_t*>(data->data()),
            reinterpret_cast<const std::uint8_t*>(data->data()) +
                data->size()};
  std::optional<StoredResult> result;
  if (rd.ensure(sizeof(kCellMagic)) &&
      std::memcmp(rd.p, kCellMagic, sizeof(kCellMagic)) == 0) {
    rd.p += sizeof(kCellMagic);
    const std::uint32_t version = rd.get_u32();
    const std::uint64_t payload_size = rd.get_u64();
    const std::uint64_t checksum = rd.get_u64();
    if (rd.ok && version == kStoreFormatVersion &&
        payload_size == static_cast<std::uint64_t>(rd.end - rd.p)) {
      const std::string payload(reinterpret_cast<const char*>(rd.p),
                                static_cast<std::size_t>(payload_size));
      if (fnv1a_bytes(kFnv1aOffset, payload.data(), payload.size()) ==
          checksum)
        result = decode_payload(payload, key);
    }
  }
  if (!result) {
    count(&StoreCounters::corrupt);
    count(&StoreCounters::misses);
    return std::nullopt;
  }
  count(&StoreCounters::hits);
  return result;
}

void ResultStore::save(const std::string& key, const StoredResult& r) {
  if (opt_.read_only) return;
  const std::string payload = encode_payload(key, r);
  std::string data(kCellMagic, sizeof(kCellMagic));
  put_u32(data, kStoreFormatVersion);
  put_u64(data, payload.size());
  put_u64(data, fnv1a_bytes(kFnv1aOffset, payload.data(), payload.size()));
  data += payload;
  if (write_ok(support::write_file_atomic(cell_path(key), data)))
    count(&StoreCounters::writes);
}

bool ResultStore::write_ok(const support::WriteStatus& st) {
  if (st.ok()) return true;
  // A failed write is a non-event for correctness (the cell simply
  // re-simulates next time) but never a silent one: it is counted and its
  // stage+errno text retained for diagnostics.
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.write_errors;
  last_write_error_ = st.message();
  return false;
}

std::string ResultStore::last_write_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_write_error_;
}

std::string ResultStore::summary() const {
  const StoreCounters c = counters();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "store: %llu hits, %llu misses (%llu corrupt), %llu cells"
                " written -> ",
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.corrupt),
                static_cast<unsigned long long>(c.writes));
  return buf + dir_;
}

std::size_t ResultStore::preload_tapes(tape::TapeCache& cache) {
  std::vector<fs::path> sidecars;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(fs::path(dir_) / "tapes", ec))
    if (e.path().extension() == ".key") sidecars.push_back(e.path());
  std::sort(sidecars.begin(), sidecars.end());

  std::size_t loaded = 0;
  for (const fs::path& kp : sidecars) {
    const std::string key = read_key_sidecar(kp);
    fs::path stem = kp;
    stem.replace_extension();
    std::optional<tape::Tape> t;
    if (!key.empty()) t = load_tape_or_miss(stem.string() + ".tape");
    if (!t) {
      // A corrupt or truncated pair is a miss: skip it, and remember it so
      // the next persist_tapes rewrites it once the cell has re-recorded.
      std::lock_guard<std::mutex> lock(mu_);
      rejected_tapes_.insert(stem.string());
      continue;
    }
    bool recorded = false;
    cache.get_or_record(
        key, [&t] { return std::move(*t); }, &recorded);
    if (recorded) ++loaded;
  }
  return loaded;
}

std::size_t ResultStore::persist_tapes(const tape::TapeCache& cache) {
  if (opt_.read_only) return 0;
  std::size_t written = 0;
  for (const auto& [key, tp] : cache.snapshot()) {
    const std::string stem =
        (fs::path(dir_) / "tapes" / hex16(key_hash(key))).string();
    std::error_code ec;
    // The .key sidecar is written last, so its presence implies a complete
    // pair; a crash between the two leaves an orphan .tape that is simply
    // rewritten next time. A pair preload_tapes rejected is rewritten too.
    if (fs::exists(stem + ".key", ec)) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!rejected_tapes_.contains(stem)) continue;
    }
    if (!write_ok(tape::save_tape_status(*tp, stem + ".tape")) ||
        !write_ok(support::write_file_atomic(stem + ".key", key + "\n")))
      continue;
    ++written;
    std::lock_guard<std::mutex> lock(mu_);
    rejected_tapes_.erase(stem);
  }
  return written;
}

std::vector<ResultStore::Entry> ResultStore::entries() const {
  std::vector<Entry> out;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(fs::path(dir_) / "cells", ec)) {
    if (e.path().extension() != ".cell") continue;
    Entry ent;
    ent.path = e.path().string();
    ent.bytes = file_bytes(e.path());
    ent.mtime = mtime_seconds(e.path());
    // Best-effort key extraction (header + payload prefix); unreadable
    // entries list with an empty key rather than being hidden.
    if (const auto data = read_file(ent.path);
        data && data->size() > sizeof(kCellMagic) + 20 &&
        std::memcmp(data->data(), kCellMagic, sizeof(kCellMagic)) == 0) {
      Reader rd{reinterpret_cast<const std::uint8_t*>(data->data()) +
                    sizeof(kCellMagic) + 20,
                reinterpret_cast<const std::uint8_t*>(data->data()) +
                    data->size()};
      std::string key = rd.get_str();
      if (rd.ok) ent.key = std::move(key);
    }
    out.push_back(std::move(ent));
  }
  for (const auto& e : fs::directory_iterator(fs::path(dir_) / "tapes", ec)) {
    if (e.path().extension() != ".tape") continue;
    Entry ent;
    ent.path = e.path().string();
    ent.bytes = file_bytes(e.path());
    ent.mtime = mtime_seconds(e.path());
    fs::path kp = e.path();
    kp.replace_extension(".key");
    ent.key = read_key_sidecar(kp);
    out.push_back(std::move(ent));
  }
  std::sort(out.begin(), out.end(),
            [](const Entry& a, const Entry& b) { return a.path < b.path; });
  return out;
}

std::uint64_t ResultStore::total_bytes() const {
  std::uint64_t total = 0;
  for (const Entry& e : entries()) total += e.bytes;
  return total;
}

std::size_t ResultStore::gc(std::uint64_t max_bytes) {
  std::vector<Entry> ents = entries();
  std::uint64_t total = 0;
  for (const Entry& e : ents) total += e.bytes;
  // Oldest first; path tiebreak keeps eviction order deterministic when a
  // whole store was written within one mtime granule.
  std::sort(ents.begin(), ents.end(), [](const Entry& a, const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.path < b.path;
  });
  std::size_t removed = 0;
  for (const Entry& e : ents) {
    if (total <= max_bytes) break;
    std::error_code ec;
    if (!fs::remove(e.path, ec) || ec) continue;
    total -= e.bytes;
    ++removed;
    fs::path p(e.path);
    if (p.extension() == ".tape") {
      p.replace_extension(".key");
      if (fs::remove(p, ec) && !ec) ++removed;
    }
  }
  return removed;
}

void ResultStore::clear() {
  std::error_code ec;
  for (const char* sub : {"cells", "tapes"})
    for (const auto& e : fs::directory_iterator(fs::path(dir_) / sub, ec))
      fs::remove(e.path(), ec);
}

}  // namespace selcache::store
