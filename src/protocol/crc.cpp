#include "protocol/crc.h"

namespace lfbs::protocol {

namespace {

std::vector<bool> append_crc(const std::vector<bool>& bits,
                             const CrcSpec& spec) {
  std::vector<bool> out = bits;
  const std::uint32_t crc = crc_bits(bits.begin(), bits.end(), spec);
  for (unsigned b = spec.width; b-- > 0;) out.push_back(((crc >> b) & 1) != 0);
  return out;
}

}  // namespace

bool crc_matches(const std::vector<bool>& bits, const CrcSpec& spec) {
  return bits.size() >= spec.width &&
         crc_bits(bits.begin(), bits.end(), spec) == 0;
}

std::uint8_t crc5_epc(const std::vector<bool>& bits) {
  return static_cast<std::uint8_t>(crc_bits(bits.begin(), bits.end(), kCrc5Epc));
}

std::vector<bool> append_crc5(const std::vector<bool>& bits) {
  return append_crc(bits, kCrc5Epc);
}

bool check_crc5(const std::vector<bool>& bits) {
  return crc_matches(bits, kCrc5Epc);
}

std::uint16_t crc16_ccitt(const std::vector<bool>& bits) {
  return static_cast<std::uint16_t>(
      crc_bits(bits.begin(), bits.end(), kCrc16Ccitt));
}

std::vector<bool> append_crc16(const std::vector<bool>& bits) {
  return append_crc(bits, kCrc16Ccitt);
}

bool check_crc16(const std::vector<bool>& bits) {
  return crc_matches(bits, kCrc16Ccitt);
}

}  // namespace lfbs::protocol
