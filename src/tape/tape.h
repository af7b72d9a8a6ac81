// Trace tapes: a compact, versioned encoding of the dynamic instruction /
// memory stream one simulation denotes.
//
// The stream a (workload, version) pair drives through cpu::TimingModel is
// a pure function of the program product and the data seed — it does not
// depend on the machine configuration (cache geometry only changes how the
// hierarchy *responds* to the stream, and I-fetch block expansion happens
// inside the timing model at replay time). Machine-parameter sweeps can
// therefore record the stream once and replay it for every machine point,
// skipping program construction, the optimization pipeline, DataEnv
// initialization, and all IR interpretation on every point but the first.
//
// ## Format (kTapeVersion = 2)
//
// The tape is a flat byte stream of operation records. Each record is one
// opcode byte followed by zero or more LEB128 varint operands:
//
//   opcode byte:  bits 0..2  operation (Op below)
//                 bit  3     flag: Load = address-dependent (pointer chase),
//                            Branch = taken, Toggle = activate; 0 otherwise
//                 bits 4..7  inline operand nibble (0..14); 15 = the
//                            operand overflowed and follows as a varint
//
//   Load/Store   operand = zigzag(addr - prev_data_addr); data addresses
//                delta-chain through loads and stores together
//   Ifetch       operand = zigzag(pc - prev_code_addr), then a second
//                operand (nibble/varint) = instruction count; code
//                addresses delta-chain through I-fetches and branches
//   Branch       operand = zigzag(pc - prev_code_addr)
//   Compute      operand = plain instruction count (not zigzagged)
//   Toggle       operand = source region id + 1 (0 = unattributed)
//   Loop         a loop run — see below
//
// ## Loop runs (new in version 2)
//
// The stream is emitted by IR loops, so it is overwhelmingly *periodic*:
// the same short op sequence repeats with each memory operand advancing by
// a constant stride per iteration. The builder detects this online — a
// taken branch to the same pc at the same op distance is a loop back-edge,
// and two consecutive iterations with identical shapes and constant
// per-slot address deltas arm a run — and emits one Loop record in place
// of m whole iterations:
//
//   Loop     nibble/varint = body length p (ops per iteration, 1..128),
//            then varint repetitions m, then p slot records:
//              slot opcode byte (op | flag | value nibble, value escaping
//              to a varint exactly like a plain record), and for the
//              address-carrying ops (Load/Store/Ifetch/Branch) a raw
//              varint first-iteration address followed by a zigzag varint
//              per-iteration stride.
//
// Replay expands the run in stream order: iteration k issues slot j at
// address addr0_j + k * stride_j, so the expanded op sequence is exactly
// the recorded one and the delta chains continue from the final iteration.
// A Loop record costs ~10 bytes per body slot *once*, so a few hundred
// iterations of a 10-op body cost ~0.03 bytes per op — and the replay loop
// runs addr += stride with a perfectly repeating dispatch pattern, far
// under the varint-decode cost of the plain encoding. Streams without
// back-edges (or with shape-changing iterations) fall back to plain
// records: address operands skip the inline nibble (deltas are rarely < 15
// after zigzag), count-style operands usually fit it. Plain tapes cost
// ~2-6 bytes per recorded data access against 16 bytes per event for a
// flat fixed-width event record; looped tapes are typically 50-100x
// denser.
//
// The recorded events are exactly the pre-expansion calls the trace engine
// makes on cpu::TimingModel (an Ifetch record is one touch_code() call, not
// one per I-cache block), so replaying a tape into a machine with any block
// size reproduces that machine's interpreted run bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/check.h"
#include "support/io.h"
#include "support/types.h"

namespace selcache::tape {

inline constexpr std::uint8_t kTapeVersion = 2;

/// Longest loop body (ops per iteration) a Loop record may carry. Bounds
/// the replayer's stack allocation and the builder's pending window.
inline constexpr std::uint32_t kMaxLoopBody = 128;

/// Fewest repetitions worth a Loop record; shorter runs flush as plain
/// records (a run of 2-3 iterations costs more as a template than inline).
inline constexpr std::uint64_t kMinLoopReps = 4;

/// Operation code of one tape record (bits 0..2 of the opcode byte).
enum class Op : std::uint8_t {
  Load = 0,
  Store = 1,
  Ifetch = 2,
  Branch = 3,
  Compute = 4,
  Toggle = 5,
  Loop = 6,
};

/// Per-kind record counts, tracked at build time so tape consumers can
/// report density without decoding. Loop records count their expanded
/// operations (a tape's stats are a property of the stream, not of the
/// encoding that carries it).
struct TapeStats {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t ifetch_batches = 0;
  std::uint64_t branches = 0;
  std::uint64_t computes = 0;
  std::uint64_t toggles = 0;

  std::uint64_t ops() const {
    return loads + stores + ifetch_batches + branches + computes + toggles;
  }
  /// Recorded demand data accesses (loads + stores) — the denominator for
  /// bytes-per-access density. I-fetch expansion is machine-dependent and
  /// happens at replay time, so it is deliberately not counted here.
  std::uint64_t data_accesses() const { return loads + stores; }

  bool operator==(const TapeStats&) const = default;
};

/// One recorded instruction/memory stream.
struct Tape {
  std::uint8_t version = kTapeVersion;
  TapeStats stats;
  std::vector<std::uint8_t> bytes;

  std::uint64_t size_bytes() const { return bytes.size(); }
  double bytes_per_access() const {
    return stats.data_accesses() == 0
               ? 0.0
               : static_cast<double>(bytes.size()) /
                     static_cast<double>(stats.data_accesses());
  }

  bool operator==(const Tape&) const = default;
};

// -- varint / zigzag primitives ---------------------------------------------

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Decode one varint from [p, end). Advances *p past the encoding; throws
/// std::logic_error (via SELCACHE_CHECK) on truncation or a >64-bit value.
inline std::uint64_t get_varint(const std::uint8_t** p,
                                const std::uint8_t* end) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    SELCACHE_CHECK_MSG(*p < end, "truncated tape varint");
    const std::uint8_t b = *(*p)++;
    SELCACHE_CHECK_MSG(shift < 64, "overlong tape varint");
    // The 10th byte holds only bit 63: any higher payload bit would be
    // shifted out silently, decoding a >64-bit value to a wrapped uint64.
    // That is corruption, not data (the encoder never emits it).
    SELCACHE_CHECK_MSG(shift < 63 || (b & 0x7E) == 0,
                       "overflowing tape varint");
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

// -- streaming encoder -------------------------------------------------------

/// Streaming tape encoder: buffers a short window of decoded operations,
/// detects loop runs at taken back-edge branches, and emits Loop records
/// for them (plain delta/varint records otherwise). The emitted byte
/// stream always decodes to exactly the recorded op sequence — the run
/// detector changes the carrier, never the stream. One builder records one
/// simulation.
class TapeBuilder {
 public:
  void load(Addr addr, bool dependent) {
    push({Op::Load, dependent, 0, addr});
    ++tape_.stats.loads;
  }

  void store(Addr addr) {
    push({Op::Store, false, 0, addr});
    ++tape_.stats.stores;
  }

  void ifetch(Addr pc, std::uint32_t n_instr) {
    push({Op::Ifetch, false, n_instr, pc});
    ++tape_.stats.ifetch_batches;
  }

  void branch(Addr pc, bool taken) {
    push({Op::Branch, taken, 0, pc});
    ++tape_.stats.branches;
  }

  void compute(std::uint64_t n) {
    push({Op::Compute, false, n, 0});
    ++tape_.stats.computes;
  }

  void toggle(bool on, std::int32_t region) {
    // region + 1 so the unattributed marker (-1) encodes as 0 in the
    // unsigned operand.
    push({Op::Toggle, on,
          static_cast<std::uint64_t>(static_cast<std::int64_t>(region) + 1),
          0});
    ++tape_.stats.toggles;
  }

  /// Finalize and take the tape. The builder is spent afterwards.
  Tape take() {
    finish();
    return std::move(tape_);
  }

 private:
  /// One recorded operation in decoded (absolute-address) form.
  struct RawOp {
    Op op;
    bool flag;
    std::uint64_t val;  ///< Ifetch count / Compute count / Toggle region+1
    Addr addr;          ///< Load/Store/Ifetch/Branch operand

    bool has_addr() const { return op <= Op::Branch; }
    /// Shape equality: everything but the address.
    bool same_shape(const RawOp& o) const {
      return op == o.op && flag == o.flag && val == o.val;
    }
  };

  void push(const RawOp& r) {
    if (in_run_) {
      extend_run(r);
      return;
    }
    pend_.push_back(r);
    ++n_ops_;
    if (r.op == Op::Branch && r.flag) on_back_edge(r);
    // Bound the pending window; chunked so the vector erase amortizes.
    if (pend_.size() > 2 * kMaxLoopBody + 64) flush_pending(64);
  }

  /// A taken branch arrived (always the last element of pend_). If it
  /// revisits a back-edge pc at the same op distance and the last two
  /// candidate iterations agree op-for-op with constant address strides,
  /// open a run. Tracking is per-pc so a consistently-taken branch inside
  /// the body does not mask the latch.
  void on_back_edge(const RawOp& r) {
    const std::uint64_t idx = n_ops_ - 1;
    const auto it = be_last_.find(r.addr);
    const bool candidate = it != be_last_.end() && idx > it->second;
    const std::uint64_t body = candidate ? idx - it->second : 0;
    be_last_[r.addr] = idx;
    if (!candidate || body > kMaxLoopBody || pend_.size() < 2 * body) return;

    const std::size_t sz = pend_.size();
    const RawOp* a = &pend_[sz - 2 * body];  // previous iteration
    const RawOp* b = &pend_[sz - body];      // just-finished iteration
    for (std::size_t j = 0; j < body; ++j)
      if (!a[j].same_shape(b[j])) return;

    // Two matching iterations: everything older flushes plain, iteration
    // `a` becomes the template (strides b-a), and both are absorbed.
    tmpl_.assign(a, a + body);
    stride_.resize(body);
    for (std::size_t j = 0; j < body; ++j)
      stride_[j] = static_cast<std::int64_t>(b[j].addr - a[j].addr);
    flush_pending(sz - 2 * body);
    pend_.clear();
    in_run_ = true;
    reps_ = 2;
    slot_ = 0;
    be_last_.clear();  // arrival indices across the run are meaningless
  }

  /// Run mode: the next op must continue the arithmetic sequence.
  void extend_run(const RawOp& r) {
    const RawOp& t = tmpl_[slot_];
    const Addr want =
        t.addr + reps_ * static_cast<Addr>(stride_[slot_]);
    if (r.same_shape(t) && (!t.has_addr() || r.addr == want)) {
      if (++slot_ == tmpl_.size()) {
        ++reps_;
        slot_ = 0;
      }
      return;
    }
    end_run();
    push(r);
  }

  /// Close the open run: emit it (Loop record, or plain ops when too
  /// short), then re-queue the matched slots of the incomplete iteration
  /// as fresh arrivals so detection can re-arm on them.
  void end_run() {
    in_run_ = false;
    const std::size_t partial = slot_;
    if (reps_ >= kMinLoopReps) {
      emit_loop();
    } else {
      for (std::uint64_t k = 0; k < reps_; ++k)
        for (std::size_t j = 0; j < tmpl_.size(); ++j)
          emit_plain(advanced(tmpl_[j], stride_[j], k));
    }
    for (std::size_t j = 0; j < partial; ++j)
      push(advanced(tmpl_[j], stride_[j], reps_));
  }

  static RawOp advanced(const RawOp& t, std::int64_t stride, std::uint64_t k) {
    RawOp r = t;
    if (r.has_addr())
      r.addr = r.addr + k * static_cast<Addr>(stride);
    return r;
  }

  void emit_loop() {
    emit_op(Op::Loop, false, tmpl_.size());
    put_varint(tape_.bytes, reps_);
    for (std::size_t j = 0; j < tmpl_.size(); ++j) {
      const RawOp& t = tmpl_[j];
      emit_op(t.op, t.flag, t.val);
      if (t.has_addr()) {
        put_varint(tape_.bytes, t.addr);
        put_varint(tape_.bytes, zigzag(stride_[j]));
      }
    }
    // The delta chains continue from the run's final iteration.
    for (std::size_t j = 0; j < tmpl_.size(); ++j) {
      const RawOp& t = tmpl_[j];
      if (!t.has_addr()) continue;
      const Addr last = advanced(t, stride_[j], reps_ - 1).addr;
      if (t.op == Op::Load || t.op == Op::Store)
        last_data_ = last;
      else
        last_code_ = last;
    }
  }

  void flush_pending(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) emit_plain(pend_[i]);
    pend_.erase(pend_.begin(),
                pend_.begin() + static_cast<std::ptrdiff_t>(n));
  }

  void finish() {
    if (in_run_) end_run();
    flush_pending(pend_.size());
  }

  void emit_plain(const RawOp& r) {
    switch (r.op) {
      case Op::Load:
      case Op::Store:
        emit_addr(r.op, r.flag, r.addr, &last_data_);
        break;
      case Op::Branch:
        emit_addr(r.op, r.flag, r.addr, &last_code_);
        break;
      case Op::Ifetch:
        // Opcode carries the count nibble; the pc delta always follows as
        // a varint (see emit_addr's nibble note).
        emit_op(Op::Ifetch, false, r.val);
        put_varint(tape_.bytes, zigzag(delta(r.addr, &last_code_)));
        break;
      case Op::Compute:
      case Op::Toggle:
        emit_op(r.op, r.flag, r.val);
        break;
      case Op::Loop:
        break;  // unreachable: the builder never queues Loop records
    }
  }

  static std::int64_t delta(Addr addr, Addr* last) {
    const std::int64_t d = static_cast<std::int64_t>(addr - *last);
    *last = addr;
    return d;
  }

  /// Opcode byte with an inline operand nibble: values 0..14 ride in the
  /// opcode, 15 escapes to a trailing varint.
  void emit_op(Op op, bool flag, std::uint64_t operand) {
    const std::uint8_t nibble =
        operand < 15 ? static_cast<std::uint8_t>(operand) : 15;
    tape_.bytes.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(op) | (flag ? 0x08 : 0) | (nibble << 4)));
    if (nibble == 15) put_varint(tape_.bytes, operand);
  }

  /// Address-operand record: nibble unused (0), zigzag delta as varint.
  void emit_addr(Op op, bool flag, Addr addr, Addr* last) {
    tape_.bytes.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(op) | (flag ? 0x08 : 0)));
    put_varint(tape_.bytes, zigzag(delta(addr, last)));
  }

  Tape tape_;
  Addr last_data_ = 0;
  Addr last_code_ = 0;

  // Detector state. pend_ holds arrived-but-unencoded ops (absolute
  // addresses); the chains above only advance when bytes are emitted, so
  // deferred emission stays consistent.
  std::vector<RawOp> pend_;
  std::uint64_t n_ops_ = 0;  ///< arrival index of the next op
  /// Arrival index of the last taken branch per pc (back-edge tracking).
  std::unordered_map<Addr, std::uint64_t> be_last_;

  // Open-run state (in_run_): tmpl_ is the first absorbed iteration,
  // stride_ its per-slot address advance, reps_ the absorbed repetition
  // count, slot_ the progress through the current (unfinished) iteration.
  bool in_run_ = false;
  std::vector<RawOp> tmpl_;
  std::vector<std::int64_t> stride_;
  std::uint64_t reps_ = 0;
  std::size_t slot_ = 0;
};

// -- generic decode ----------------------------------------------------------

/// Drive `sink` with every operation of `tape`, in order. `Sink` is any
/// type with the six timing-model entry points (cpu::TimingModel itself,
/// or a test collector):
///
///   compute(uint64_t) load(Addr,bool) store(Addr)
///   branch(Addr,bool) toggle(bool,int32_t) touch_code(Addr,uint32_t)
///
/// This is the whole replay loop: a switch over the opcode byte and varint
/// decodes, with Loop records expanding in a tight addr += stride loop —
/// no IR dispatch, no variable table, no subscript evaluation. Throws
/// std::logic_error on a corrupt or truncated tape.
template <typename Sink>
void replay_into(const Tape& tape, Sink& sink) {
  SELCACHE_CHECK_MSG(tape.version == kTapeVersion,
                     "unsupported tape version");
  const std::uint8_t* p = tape.bytes.data();
  const std::uint8_t* const end = p + tape.bytes.size();
  Addr last_data = 0;
  Addr last_code = 0;
  while (p < end) {
    const std::uint8_t b = *p++;
    const Op op = static_cast<Op>(b & 0x07);
    const bool flag = (b & 0x08) != 0;
    const std::uint8_t nibble = b >> 4;
    switch (op) {
      case Op::Load: {
        last_data += static_cast<Addr>(unzigzag(get_varint(&p, end)));
        sink.load(last_data, flag);
        break;
      }
      case Op::Store: {
        last_data += static_cast<Addr>(unzigzag(get_varint(&p, end)));
        sink.store(last_data);
        break;
      }
      case Op::Ifetch: {
        const std::uint64_t n =
            nibble < 15 ? nibble : get_varint(&p, end);
        last_code += static_cast<Addr>(unzigzag(get_varint(&p, end)));
        sink.touch_code(last_code, static_cast<std::uint32_t>(n));
        break;
      }
      case Op::Branch: {
        last_code += static_cast<Addr>(unzigzag(get_varint(&p, end)));
        sink.branch(last_code, flag);
        break;
      }
      case Op::Compute: {
        const std::uint64_t n =
            nibble < 15 ? nibble : get_varint(&p, end);
        sink.compute(n);
        break;
      }
      case Op::Toggle: {
        const std::uint64_t r =
            nibble < 15 ? nibble : get_varint(&p, end);
        sink.toggle(flag,
                    static_cast<std::int32_t>(static_cast<std::int64_t>(r - 1)));
        break;
      }
      case Op::Loop: {
        const std::uint64_t nslots =
            nibble < 15 ? nibble : get_varint(&p, end);
        SELCACHE_CHECK_MSG(nslots >= 1 && nslots <= kMaxLoopBody,
                           "corrupt tape loop body");
        const std::uint64_t reps = get_varint(&p, end);
        SELCACHE_CHECK_MSG(reps >= 1, "corrupt tape loop reps");
        struct Slot {
          Op op;
          bool flag;
          std::uint64_t val;
          Addr addr;
          std::int64_t stride;
        };
        Slot slots[kMaxLoopBody];
        for (std::uint64_t j = 0; j < nslots; ++j) {
          SELCACHE_CHECK_MSG(p < end, "truncated tape loop slot");
          const std::uint8_t sb = *p++;
          Slot& s = slots[j];
          s.op = static_cast<Op>(sb & 0x07);
          SELCACHE_CHECK_MSG(s.op != Op::Loop, "nested tape loop");
          s.flag = (sb & 0x08) != 0;
          const std::uint8_t sn = sb >> 4;
          s.val = sn < 15 ? sn : get_varint(&p, end);
          if (s.op <= Op::Branch) {
            s.addr = get_varint(&p, end);
            s.stride = unzigzag(get_varint(&p, end));
          } else {
            s.addr = 0;
            s.stride = 0;
          }
        }
        for (std::uint64_t k = 0; k < reps; ++k) {
          for (std::uint64_t j = 0; j < nslots; ++j) {
            Slot& s = slots[j];
            switch (s.op) {
              case Op::Load:
                last_data = s.addr;
                sink.load(last_data, s.flag);
                break;
              case Op::Store:
                last_data = s.addr;
                sink.store(last_data);
                break;
              case Op::Ifetch:
                last_code = s.addr;
                sink.touch_code(last_code,
                                static_cast<std::uint32_t>(s.val));
                break;
              case Op::Branch:
                last_code = s.addr;
                sink.branch(last_code, s.flag);
                break;
              case Op::Compute:
                sink.compute(s.val);
                break;
              case Op::Toggle:
                sink.toggle(s.flag,
                            static_cast<std::int32_t>(
                                static_cast<std::int64_t>(s.val - 1)));
                break;
              case Op::Loop:
                break;  // rejected at slot decode
            }
            s.addr += static_cast<Addr>(s.stride);
          }
        }
        break;
      }
      default:
        SELCACHE_CHECK_MSG(false, "corrupt tape opcode");
    }
  }
}

// -- file round-trip ---------------------------------------------------------

/// Binary save with a versioned header ("SCTAPE01" magic, stats, byte
/// count). Crash-safe: unique .tmp sibling + atomic rename through
/// support::write_file_atomic; the status carries the failing stage and
/// errno text (ENOSPC/EIO surface here, never as a truncated tape).
support::WriteStatus save_tape_status(const Tape& tape,
                                      const std::string& path);

/// Boolean convenience wrapper around save_tape_status.
bool save_tape(const Tape& tape, const std::string& path);

/// Load and validate a saved tape; throws std::logic_error on malformed
/// input (bad magic, version, truncation, stat/byte-count mismatch).
Tape load_tape(const std::string& path);

}  // namespace selcache::tape
