#include "runtime/comm.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace mca2a::rt {

int Comm::acquire_tag_stream() noexcept {
  const int s = next_tag_stream_;
  next_tag_stream_ =
      next_tag_stream_ + 1 < tags::kNumStreams ? next_tag_stream_ + 1 : 1;
  // Registered once per process (cold); afterwards two relaxed atomic ops.
  // The high-water gauge tracks the deepest stream index any communicator
  // handed out — a proxy for the peak number of concurrently planned ops.
  static obs::Counter& acquired = obs::metrics().counter("tags.acquired");
  static obs::Gauge& high = obs::metrics().gauge("tags.stream_high_water");
  acquired.add();
  high.update_max(s);
  return s;
}

void Comm::check_send(int dst, int tag) const {
  if (dst < 0 || dst >= size_) {
    throw std::out_of_range("isend: destination rank out of range");
  }
  if (tag < 0) {
    throw std::invalid_argument("isend: tag must be >= 0");
  }
}

void Comm::check_recv(int src, int tag) const {
  if (src != kAnySource && (src < 0 || src >= size_)) {
    throw std::out_of_range("irecv: source rank out of range");
  }
  if (tag != kAnyTag && tag < 0) {
    throw std::invalid_argument("irecv: tag must be >= 0 or kAnyTag");
  }
}

Request Comm::isend(ConstView buf, int dst, int tag) {
  check_send(dst, tag);
  return do_isend(buf, dst, tag);
}

Request Comm::irecv(MutView buf, int src, int tag) {
  check_recv(src, tag);
  return do_irecv(buf, src, tag);
}

}  // namespace mca2a::rt
