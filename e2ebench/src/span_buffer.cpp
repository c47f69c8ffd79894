#include "span_buffer.hpp"

#include <cstdio>

namespace tcbench {

std::string SpanBuffer::to_chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  char line[256];
  for (std::size_t i = 0; i < size_; ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"frame\":%d}}",
                  i == 0 ? "" : ",", s.name, s.start_us, s.end_us - s.start_us,
                  i, s.parent, s.frame);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "],\"otherData\":{\"spans\":%zu,\"dropped\":%zu}}\n", size_,
                dropped_);
  out += line;
  return out;
}

}  // namespace tcbench
