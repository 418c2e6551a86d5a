#include "storage/extent_codec.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/macros.h"
#include "wal/crc32c.h"
#include "wal/wal_format.h"

namespace anker::storage {

namespace {

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "extent frame format assumes a little-endian host"
#endif

/// Width in bits needed to represent `v` (0 for v == 0).
unsigned BitWidth(uint64_t v) {
  return v == 0 ? 0u : 64u - static_cast<unsigned>(__builtin_clzll(v));
}

/// Appends ceil(n*width/8) bytes holding the low `width` bits of each
/// value, LSB-first within the byte stream.
void PackBits(const std::vector<uint64_t>& values, unsigned width,
              std::string* out) {
  if (width == 0) return;
  const size_t start = out->size();
  out->resize(start + (values.size() * width + 7) / 8, '\0');
  uint8_t* p = reinterpret_cast<uint8_t*>(out->data() + start);
  size_t bitpos = 0;
  for (uint64_t v : values) {
    size_t byte = bitpos >> 3;
    unsigned off = static_cast<unsigned>(bitpos & 7);
    unsigned remaining = width;
    while (remaining > 0) {
      const unsigned chunk = std::min(8u - off, remaining);
      p[byte] |= static_cast<uint8_t>((v & ((1ull << chunk) - 1)) << off);
      v >>= chunk;
      remaining -= chunk;
      ++byte;
      off = 0;
    }
    bitpos += width;
  }
}

uint64_t UnpackBits(const uint8_t* p, size_t index, unsigned width) {
  uint64_t v = 0;
  size_t bitpos = index * width;
  unsigned shift = 0;
  unsigned remaining = width;
  size_t byte = bitpos >> 3;
  unsigned off = static_cast<unsigned>(bitpos & 7);
  while (remaining > 0) {
    const unsigned chunk = std::min(8u - off, remaining);
    v |= (static_cast<uint64_t>(p[byte] >> off) & ((1ull << chunk) - 1))
         << shift;
    shift += chunk;
    remaining -= chunk;
    ++byte;
    off = 0;
  }
  return v;
}

size_t PackedBytes(size_t count, unsigned width) {
  return (count * width + 7) / 8;
}

/// Dictionary candidate: distinct values in first-occurrence order plus
/// bit-packed indices. Returns false on a dict miss (too many distinct
/// values to ever beat plain).
bool EncodeDict(const uint64_t* slots, size_t n, std::string* payload) {
  std::unordered_map<uint64_t, uint32_t> codes;
  std::vector<uint64_t> dict;
  std::vector<uint64_t> indices;
  indices.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] =
        codes.emplace(slots[i], static_cast<uint32_t>(dict.size()));
    if (inserted) {
      if (dict.size() >= kMaxExtentDictEntries) return false;
      dict.push_back(slots[i]);
    }
    indices.push_back(it->second);
  }
  const unsigned width =
      dict.size() <= 1 ? 0 : BitWidth(dict.size() - 1);
  wal::PutU32(payload, static_cast<uint32_t>(dict.size()));
  for (uint64_t v : dict) wal::PutU64(payload, v);
  PackBits(indices, width, payload);
  return true;
}

/// Frame-of-reference candidate: signed minimum as the base, bit-packed
/// unsigned deltas. Returns false when the value range needs 64 bits
/// (plain is the honest representation then).
bool EncodeFor(const uint64_t* slots, size_t n, std::string* payload) {
  int64_t min_v = DecodeInt64(slots[0]);
  uint64_t max_delta = 0;
  for (size_t i = 0; i < n; ++i) {
    min_v = std::min(min_v, DecodeInt64(slots[i]));
  }
  std::vector<uint64_t> deltas;
  deltas.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t d = slots[i] - static_cast<uint64_t>(min_v);
    max_delta = std::max(max_delta, d);
    deltas.push_back(d);
  }
  const unsigned width = BitWidth(max_delta);
  if (width >= 64) return false;
  wal::PutU64(payload, static_cast<uint64_t>(min_v));
  wal::PutU8(payload, static_cast<uint8_t>(width));
  PackBits(deltas, width, payload);
  return true;
}

std::string Frame(ExtentEncoding encoding, uint64_t row_count,
                  const std::string& payload) {
  std::string frame;
  frame.reserve(kExtentHeaderBytes + payload.size() + kExtentTrailerBytes);
  wal::PutU32(&frame, kExtentMagic);
  wal::PutU8(&frame, kExtentVersion);
  wal::PutU8(&frame, static_cast<uint8_t>(encoding));
  wal::PutU8(&frame, 0);
  wal::PutU8(&frame, 0);
  wal::PutU64(&frame, row_count);
  wal::PutU64(&frame, payload.size());
  frame += payload;
  wal::PutU32(&frame,
              wal::MaskCrc(wal::Crc32c(0, frame.data(), frame.size())));
  return frame;
}

struct FrameHeader {
  ExtentEncoding encoding;
  uint64_t row_count;
  std::string_view payload;
};

Status ParseFrame(std::string_view frame, FrameHeader* h) {
  const Status malformed = Status::IoError("malformed extent frame");
  if (frame.size() < kExtentHeaderBytes + kExtentTrailerBytes) {
    return malformed;
  }
  std::string_view in = frame;
  uint32_t magic = 0;
  uint8_t version = 0, encoding = 0, pad0 = 0, pad1 = 0;
  uint64_t row_count = 0, payload_len = 0;
  if (!wal::GetU32(&in, &magic) || !wal::GetU8(&in, &version) ||
      !wal::GetU8(&in, &encoding) || !wal::GetU8(&in, &pad0) ||
      !wal::GetU8(&in, &pad1) || !wal::GetU64(&in, &row_count) ||
      !wal::GetU64(&in, &payload_len)) {
    return malformed;
  }
  if (magic != kExtentMagic) return Status::IoError("bad extent magic");
  if (version != kExtentVersion) {
    return Status::IoError("unsupported extent version");
  }
  if (encoding > static_cast<uint8_t>(ExtentEncoding::kForInt64) ||
      pad0 != 0 || pad1 != 0) {
    return malformed;
  }
  if (row_count > kMaxExtentRows) {
    return Status::IoError("extent row count exceeds limit");
  }
  if (payload_len !=
      frame.size() - kExtentHeaderBytes - kExtentTrailerBytes) {
    return Status::IoError("extent payload length mismatch");
  }
  const size_t covered = frame.size() - kExtentTrailerBytes;
  std::string_view trailer = frame.substr(covered);
  uint32_t masked = 0;
  if (!wal::GetU32(&trailer, &masked) ||
      wal::UnmaskCrc(masked) != wal::Crc32c(0, frame.data(), covered)) {
    return Status::IoError("extent checksum mismatch");
  }
  h->encoding = static_cast<ExtentEncoding>(encoding);
  h->row_count = row_count;
  h->payload = in.substr(0, payload_len);
  return Status::OK();
}

}  // namespace

std::string EncodeExtent(const uint64_t* slots, size_t row_count,
                         ValueType type, ExtentEncoding* chosen) {
  ANKER_CHECK(row_count <= kMaxExtentRows);
  std::string best;
  best.assign(reinterpret_cast<const char*>(slots),
              row_count * sizeof(uint64_t));
  ExtentEncoding best_encoding = ExtentEncoding::kPlainU64;

  if (row_count > 0) {
    std::string dict;
    if (EncodeDict(slots, row_count, &dict) && dict.size() < best.size()) {
      best = std::move(dict);
      best_encoding = ExtentEncoding::kDictU64;
    }
    // Frame-of-reference only for integer-like slots (int64 columns and
    // dictionary codes); double bit patterns have no meaningful deltas.
    if (type == ValueType::kInt64 || type == ValueType::kDict32) {
      std::string forp;
      if (EncodeFor(slots, row_count, &forp) && forp.size() < best.size()) {
        best = std::move(forp);
        best_encoding = ExtentEncoding::kForInt64;
      }
    }
  }
  if (chosen != nullptr) *chosen = best_encoding;
  return Frame(best_encoding, row_count, best);
}

Status DecodeExtent(std::string_view frame, std::vector<uint64_t>* out) {
  FrameHeader h;
  ANKER_RETURN_IF_ERROR(ParseFrame(frame, &h));
  const size_t n = h.row_count;
  std::string_view payload = h.payload;
  out->clear();

  switch (h.encoding) {
    case ExtentEncoding::kPlainU64: {
      if (payload.size() != n * sizeof(uint64_t)) {
        return Status::IoError("plain extent size mismatch");
      }
      out->resize(n);
      // memcpy into an empty vector's null data() is undefined.
      if (n > 0) std::memcpy(out->data(), payload.data(), payload.size());
      return Status::OK();
    }
    case ExtentEncoding::kDictU64: {
      uint32_t count = 0;
      if (!wal::GetU32(&payload, &count) ||
          count > kMaxExtentDictEntries ||
          payload.size() < count * sizeof(uint64_t)) {
        return Status::IoError("dict extent header mismatch");
      }
      std::vector<uint64_t> dict(count);
      if (count > 0) {
        std::memcpy(dict.data(), payload.data(), count * sizeof(uint64_t));
      }
      payload.remove_prefix(count * sizeof(uint64_t));
      if (count == 0 && n != 0) {
        return Status::IoError("dict extent with rows but no entries");
      }
      const unsigned width = count <= 1 ? 0 : BitWidth(count - 1);
      if (payload.size() != PackedBytes(n, width)) {
        return Status::IoError("dict extent index stream size mismatch");
      }
      out->resize(n);
      const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
      for (size_t i = 0; i < n; ++i) {
        const uint64_t idx = width == 0 ? 0 : UnpackBits(p, i, width);
        if (idx >= count) {
          return Status::IoError("dict extent index out of range");
        }
        (*out)[i] = dict[idx];
      }
      return Status::OK();
    }
    case ExtentEncoding::kForInt64: {
      uint64_t base = 0;
      uint8_t width = 0;
      if (!wal::GetU64(&payload, &base) || !wal::GetU8(&payload, &width) ||
          width >= 64) {
        return Status::IoError("FOR extent header mismatch");
      }
      if (payload.size() != PackedBytes(n, width)) {
        return Status::IoError("FOR extent delta stream size mismatch");
      }
      out->resize(n);
      const uint8_t* p = reinterpret_cast<const uint8_t*>(payload.data());
      for (size_t i = 0; i < n; ++i) {
        const uint64_t d = width == 0 ? 0 : UnpackBits(p, i, width);
        (*out)[i] = base + d;
      }
      return Status::OK();
    }
  }
  return Status::IoError("extent with unknown encoding");
}

Result<uint64_t> ExtentRowCount(std::string_view frame) {
  FrameHeader h;
  ANKER_RETURN_IF_ERROR(ParseFrame(frame, &h));
  return h.row_count;
}

const char* ExtentEncodingName(ExtentEncoding encoding) {
  switch (encoding) {
    case ExtentEncoding::kPlainU64:
      return "plain";
    case ExtentEncoding::kDictU64:
      return "dict";
    case ExtentEncoding::kForInt64:
      return "for";
  }
  return "unknown";
}

}  // namespace anker::storage
