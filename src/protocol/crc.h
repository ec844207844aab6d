#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lfbs::protocol {

/// A non-reflected CRC without final XOR: register width, feedback
/// polynomial (implicit top bit dropped) and preset.
struct CrcSpec {
  unsigned width;
  std::uint32_t poly;
  std::uint32_t init;
};

/// CRC-5/EPC as used by EPC Gen 2 inventory (polynomial x⁵+x³+1, preset
/// 0b01001). The paper's identification protocol sends "96 bits + 5 bit
/// CRC" per epoch (§5.2).
inline constexpr CrcSpec kCrc5Epc{5, 0b01001, 0b01001};

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) for data frames.
inline constexpr CrcSpec kCrc16Ccitt{16, 0x1021, 0xFFFF};

/// One bitwise MSB-first register step: shift `bit` in. In GF(2)[x] terms
/// the step maps reg to reg·x + bit·x^width mod the CRC polynomial.
inline std::uint32_t crc_step(std::uint32_t reg, bool bit,
                              const CrcSpec& spec) {
  const std::uint32_t top = 1u << (spec.width - 1);
  const bool msb = (reg & top) != 0;
  reg = (reg << 1) & ((top << 1) - 1);
  return msb != bit ? reg ^ spec.poly : reg;
}

/// CRC register over the bits in [first, last), from the preset; any
/// iterator whose elements convert to bool (vector<bool>, unpacked bytes).
/// Every CRC in this module is built on crc_step.
template <typename It>
std::uint32_t crc_bits(It first, It last, const CrcSpec& spec) {
  std::uint32_t reg = spec.init;
  for (; first != last; ++first) {
    reg = crc_step(reg, static_cast<bool>(*first), spec);
  }
  return reg;
}

/// CRC register of a window of `len` bits sliding along a stream, moved one
/// bit in O(1) instead of re-running crc_bits over the whole window. For a
/// window w_0..w_{L-1} the register is init·x^L + Σ w_k·x^(width+L-1-k), so
/// dropping w_0 and appending a bit is one step plus two constants.
class SlidingCrc {
 public:
  SlidingCrc(const CrcSpec& spec, std::size_t len) : spec_(spec) {
    // out_term_ = x^(width+L); init_term_ = init·(x^L + x^(L+1)).
    std::uint32_t out = crc_step(0, true, spec);
    std::uint32_t init = spec.init;
    for (std::size_t i = 0; i < len; ++i) {
      out = crc_step(out, false, spec);
      init = crc_step(init, false, spec);
    }
    out_term_ = out;
    init_term_ = init ^ crc_step(init, false, spec);
  }

  /// Register of the window one bit on: `dropped` leaves at the front,
  /// `added` enters at the back.
  std::uint32_t slide(std::uint32_t reg, bool dropped, bool added) const {
    reg = crc_step(reg, added, spec_) ^ init_term_;
    return dropped ? reg ^ out_term_ : reg;
  }

 private:
  CrcSpec spec_;
  std::uint32_t out_term_ = 0;
  std::uint32_t init_term_ = 0;
};

/// True when `bits` is a message followed by its spec.width CRC bits, MSB
/// first. Running the register over the check bits too leaves zero exactly
/// when they match, because the polynomial has a non-zero constant term.
bool crc_matches(const std::vector<bool>& bits, const CrcSpec& spec);

/// CRC-5/EPC register of `bits` (kCrc5Epc).
std::uint8_t crc5_epc(const std::vector<bool>& bits);

/// Appends the 5 CRC bits (MSB first) to a copy of `bits`.
std::vector<bool> append_crc5(const std::vector<bool>& bits);

/// True when the last 5 bits are a valid CRC-5/EPC of the preceding bits.
bool check_crc5(const std::vector<bool>& bits);

/// CRC-16/CCITT-FALSE register of `bits` (kCrc16Ccitt).
std::uint16_t crc16_ccitt(const std::vector<bool>& bits);

std::vector<bool> append_crc16(const std::vector<bool>& bits);

bool check_crc16(const std::vector<bool>& bits);

}  // namespace lfbs::protocol
