#include "sim/message.hpp"

#include <algorithm>

namespace dec {

void CongestAudit::reset() {
  max_bits_ = 0;
  messages_ = 0;
}

void CongestAudit::merge(const CongestAudit& other) {
  max_bits_ = std::max(max_bits_, other.max_bits_);
  messages_ += other.messages_;
}

}  // namespace dec
