#include "cbrain/isa/program.hpp"

#include <cstring>

namespace cbrain {

std::pair<i64, i64> Program::layer_range(LayerId layer) const {
  const auto b = layer_begin_.find(layer);
  const auto e = layer_end_.find(layer);
  if (b == layer_begin_.end() || e == layer_end_.end()) return {0, 0};
  return {b->second, e->second};
}

ProgramStats Program::stats() const {
  ProgramStats s;
  s.instructions = size();
  for (const Instruction& instr : instrs_) {
    if (const auto* load = std::get_if<LoadInstr>(&instr)) {
      ++s.loads;
      s.load_words += load->words;
    } else if (std::holds_alternative<ConvTileInstr>(instr)) {
      ++s.conv_tiles;
    } else if (std::holds_alternative<PoolTileInstr>(instr)) {
      ++s.pool_tiles;
    } else if (std::holds_alternative<FcTileInstr>(instr)) {
      ++s.fc_tiles;
    } else if (std::holds_alternative<HostOpInstr>(instr)) {
      ++s.host_ops;
    } else if (std::holds_alternative<BarrierInstr>(instr)) {
      ++s.barriers;
    } else if (std::holds_alternative<EltwiseTileInstr>(instr)) {
      ++s.eltwise_tiles;
    }
  }
  return s;
}

// --- serialization ---------------------------------------------------------

namespace {

constexpr char kMagic[4] = {'C', 'B', 'R', 'P'};
// v2: ConvTileInstr gained `dilation`; EltwiseTileInstr added (opcode 6).
// v3: ChipXferInstr added (opcode 7) for partitioned multi-chip streams.
// v4: records carry no label strings and tiles no OutputMap lists (both
//     are derived from the network and the layout); opcode 7 removed.
constexpr i64 kVersion = 4;

void put_i64(std::string& out, i64 v) {
  const u64 u = static_cast<u64>(v);
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((u >> (8 * i)) & 0xFF));
}

void put_u8(std::string& out, unsigned v) {
  out.push_back(static_cast<char>(v & 0xFF));
}

void put_bool(std::string& out, bool b) { put_u8(out, b ? 1 : 0); }

// Bounds-checked little-endian reader. The first failed read latches a
// Status with the byte offset; every accessor after a failure returns a
// harmless default so decoding simply falls through to the next check.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ok() const { return status_.is_ok(); }
  const Status& status() const { return status_; }
  i64 remaining() const { return static_cast<i64>(data_.size() - pos_); }
  bool at_end() const { return pos_ == data_.size(); }

  void fail(const std::string& msg) {
    if (status_.is_ok())
      status_ = Status::invalid_argument("program stream: " + msg +
                                         " at byte " +
                                         std::to_string(pos_));
  }

  i64 get_i64() {
    if (!take_ok(8)) {
      fail("truncated i64");
      return 0;
    }
    u64 u = 0;
    for (int i = 0; i < 8; ++i)
      u |= static_cast<u64>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    pos_ += 8;
    return static_cast<i64>(u);
  }

  unsigned get_u8() {
    if (!take_ok(1)) {
      fail("truncated byte");
      return 0;
    }
    return static_cast<unsigned char>(data_[pos_++]);
  }

  bool get_bool() {
    const unsigned v = get_u8();
    if (ok() && v > 1) fail("bad bool");
    return v == 1;
  }

  // An enum encoded as one byte, validated against [0, limit).
  template <typename E>
  E get_enum(unsigned limit, const char* what) {
    const unsigned v = get_u8();
    if (ok() && v >= limit) fail(std::string("bad ") + what);
    return static_cast<E>(ok() ? v : 0);
  }

 private:
  bool take_ok(std::size_t n) const {
    return ok() && pos_ + n <= data_.size();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  Status status_;
};

void put_instr(std::string& out, const Instruction& instr) {
  put_u8(out, static_cast<unsigned>(instr.index()));
  if (const auto* p = std::get_if<LoadInstr>(&instr)) {
    put_u8(out, static_cast<unsigned>(p->dst));
    put_i64(out, p->dst_addr);
    put_i64(out, p->src);
    put_i64(out, p->words);
    put_i64(out, p->chunks);
    put_i64(out, p->chunk_words);
    put_i64(out, p->src_stride);
  } else if (const auto* p = std::get_if<ConvTileInstr>(&instr)) {
    put_i64(out, p->layer);
    put_u8(out, static_cast<unsigned>(p->scheme));
    put_i64(out, p->k);
    put_i64(out, p->stride);
    put_i64(out, p->dilation);
    put_i64(out, p->part.g);
    put_i64(out, p->part.ks);
    put_i64(out, p->out_w);
    put_i64(out, p->out_row0);
    put_i64(out, p->out_row1);
    put_i64(out, p->dout0);
    put_i64(out, p->dout1);
    put_i64(out, p->din0);
    put_i64(out, p->din1);
    put_i64(out, p->input_base);
    put_i64(out, p->band_row0);
    put_i64(out, p->band_rows);
    put_i64(out, p->band_width);
    put_u8(out, static_cast<unsigned>(p->band_order));
    put_i64(out, p->weight_base);
    put_i64(out, p->bias_base);
    put_bool(out, p->first_din_chunk);
    put_bool(out, p->last_din_chunk);
    put_bool(out, p->relu);
  } else if (const auto* p = std::get_if<PoolTileInstr>(&instr)) {
    put_i64(out, p->layer);
    put_u8(out, static_cast<unsigned>(p->kind));
    put_i64(out, p->p);
    put_i64(out, p->stride);
    put_i64(out, p->in_h);
    put_i64(out, p->in_w);
    put_i64(out, p->pad);
    put_i64(out, p->out_w);
    put_i64(out, p->out_row0);
    put_i64(out, p->out_row1);
    put_i64(out, p->d0);
    put_i64(out, p->d1);
    put_i64(out, p->input_base);
    put_i64(out, p->band_row0);
    put_i64(out, p->band_rows);
    put_i64(out, p->band_width);
    put_u8(out, static_cast<unsigned>(p->band_order));
  } else if (const auto* p = std::get_if<FcTileInstr>(&instr)) {
    put_i64(out, p->layer);
    put_i64(out, p->din);
    put_i64(out, p->din0);
    put_i64(out, p->din1);
    put_i64(out, p->dout0);
    put_i64(out, p->dout1);
    put_i64(out, p->input_base);
    put_i64(out, p->weight_base);
    put_i64(out, p->bias_base);
    put_bool(out, p->first_din_chunk);
    put_bool(out, p->last_din_chunk);
    put_bool(out, p->relu);
  } else if (const auto* p = std::get_if<HostOpInstr>(&instr)) {
    put_i64(out, p->layer);
    put_u8(out, static_cast<unsigned>(p->kind));
    put_i64(out, p->words);
  } else if (const auto* p = std::get_if<EltwiseTileInstr>(&instr)) {
    put_i64(out, p->layer);
    put_bool(out, p->relu);
    put_i64(out, p->out_w);
    put_i64(out, p->out_row0);
    put_i64(out, p->out_row1);
    put_i64(out, p->d0);
    put_i64(out, p->d1);
    put_i64(out, p->input_base_a);
    put_i64(out, p->input_base_b);
    put_i64(out, p->band_row0);
    put_i64(out, p->band_rows);
    put_i64(out, p->band_width);
  }
}

Instruction get_instr(Reader& r) {
  const unsigned opcode = r.get_u8();
  switch (opcode) {
    case 0: {
      LoadInstr p;
      p.dst = r.get_enum<BufferId>(4, "BufferId");
      p.dst_addr = r.get_i64();
      p.src = r.get_i64();
      p.words = r.get_i64();
      p.chunks = r.get_i64();
      p.chunk_words = r.get_i64();
      p.src_stride = r.get_i64();
      return p;
    }
    case 1: {
      ConvTileInstr p;
      p.layer = r.get_i64();
      p.scheme = r.get_enum<Scheme>(5, "Scheme");
      p.k = r.get_i64();
      p.stride = r.get_i64();
      p.dilation = r.get_i64();
      p.part.g = r.get_i64();
      p.part.ks = r.get_i64();
      p.out_w = r.get_i64();
      p.out_row0 = r.get_i64();
      p.out_row1 = r.get_i64();
      p.dout0 = r.get_i64();
      p.dout1 = r.get_i64();
      p.din0 = r.get_i64();
      p.din1 = r.get_i64();
      p.input_base = r.get_i64();
      p.band_row0 = r.get_i64();
      p.band_rows = r.get_i64();
      p.band_width = r.get_i64();
      p.band_order = r.get_enum<DataOrder>(2, "DataOrder");
      p.weight_base = r.get_i64();
      p.bias_base = r.get_i64();
      p.first_din_chunk = r.get_bool();
      p.last_din_chunk = r.get_bool();
      p.relu = r.get_bool();
      return p;
    }
    case 2: {
      PoolTileInstr p;
      p.layer = r.get_i64();
      p.kind = r.get_enum<PoolKind>(2, "PoolKind");
      p.p = r.get_i64();
      p.stride = r.get_i64();
      p.in_h = r.get_i64();
      p.in_w = r.get_i64();
      p.pad = r.get_i64();
      p.out_w = r.get_i64();
      p.out_row0 = r.get_i64();
      p.out_row1 = r.get_i64();
      p.d0 = r.get_i64();
      p.d1 = r.get_i64();
      p.input_base = r.get_i64();
      p.band_row0 = r.get_i64();
      p.band_rows = r.get_i64();
      p.band_width = r.get_i64();
      p.band_order = r.get_enum<DataOrder>(2, "DataOrder");
      return p;
    }
    case 3: {
      FcTileInstr p;
      p.layer = r.get_i64();
      p.din = r.get_i64();
      p.din0 = r.get_i64();
      p.din1 = r.get_i64();
      p.dout0 = r.get_i64();
      p.dout1 = r.get_i64();
      p.input_base = r.get_i64();
      p.weight_base = r.get_i64();
      p.bias_base = r.get_i64();
      p.first_din_chunk = r.get_bool();
      p.last_din_chunk = r.get_bool();
      p.relu = r.get_bool();
      return p;
    }
    case 4: {
      HostOpInstr p;
      p.layer = r.get_i64();
      p.kind = r.get_enum<HostOpKind>(3, "HostOpKind");
      p.words = r.get_i64();
      return p;
    }
    case 5:
      return BarrierInstr{};
    case 6: {
      EltwiseTileInstr p;
      p.layer = r.get_i64();
      p.relu = r.get_bool();
      p.out_w = r.get_i64();
      p.out_row0 = r.get_i64();
      p.out_row1 = r.get_i64();
      p.d0 = r.get_i64();
      p.d1 = r.get_i64();
      p.input_base_a = r.get_i64();
      p.input_base_b = r.get_i64();
      p.band_row0 = r.get_i64();
      p.band_rows = r.get_i64();
      p.band_width = r.get_i64();
      return p;
    }
    default:
      r.fail("bad opcode " + std::to_string(opcode));
      return BarrierInstr{};
  }
}

}  // namespace

std::string Program::serialize() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_i64(out, kVersion);
  put_i64(out, size());
  for (const Instruction& instr : instrs_) put_instr(out, instr);
  put_i64(out, static_cast<i64>(layer_begin_.size()));
  for (const auto& [layer, begin] : layer_begin_) {
    put_i64(out, layer);
    put_i64(out, begin);
  }
  put_i64(out, static_cast<i64>(layer_end_.size()));
  for (const auto& [layer, end] : layer_end_) {
    put_i64(out, layer);
    put_i64(out, end);
  }
  return out;
}

Result<Program> Program::deserialize(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return Status::invalid_argument(
        "program stream: missing CBRP magic (not a serialized program)");
  Reader body(bytes.substr(sizeof(kMagic)));
  const i64 version = body.get_i64();
  if (body.ok() && version != kVersion)
    return Status::unsupported("program stream: unsupported version " +
                               std::to_string(version));

  Program prog;
  const i64 count = body.get_i64();
  // The shortest instruction (a barrier, its opcode alone) is 1 byte.
  if (body.ok() && (count < 0 || count > body.remaining()))
    body.fail("bad instruction count " + std::to_string(count));
  for (i64 i = 0; i < count && body.ok(); ++i)
    prog.instrs_.push_back(get_instr(body));

  const auto read_map = [&](std::map<LayerId, i64>* out) {
    const i64 n = body.get_i64();
    if (body.ok() && (n < 0 || n > body.remaining() / 16)) {
      body.fail("bad layer map size " + std::to_string(n));
      return;
    }
    for (i64 i = 0; i < n && body.ok(); ++i) {
      const LayerId layer = body.get_i64();
      (*out)[layer] = body.get_i64();
    }
  };
  read_map(&prog.layer_begin_);
  read_map(&prog.layer_end_);

  if (body.ok() && !body.at_end()) body.fail("trailing bytes");
  if (!body.ok()) return body.status();
  return prog;
}

}  // namespace cbrain
