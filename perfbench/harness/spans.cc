#include "spans.h"

#include <cstdio>

namespace perfbench {

Spans::Spans(bool enabled, std::uint64_t run_id)
    : enabled_(enabled),
      run_id_(run_id),
      origin_(std::chrono::steady_clock::now()) {}

double Spans::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Spans::Scope::Scope(Spans& spans, const char* name) : spans_(spans) {
  if (!spans_.enabled_) return;
  Span span;
  span.name = name;
  span.id = static_cast<int>(spans_.spans_.size());
  span.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
  index_ = span.id;
  spans_.spans_.push_back(std::move(span));
  spans_.open_.push_back(index_);
  // Stamp last so the bookkeeping above is outside the span.
  spans_.spans_[static_cast<std::size_t>(index_)].start_us = spans_.now_us();
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  spans_.spans_[static_cast<std::size_t>(index_)].end_us = spans_.now_us();
  spans_.open_.pop_back();
}

double Spans::last_s(const std::string& name) const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == name) return (it->end_us - it->start_us) / 1e6;
  }
  return 0;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                 "\"args\":{\"span\":%d,\"parent\":%d,\"run\":%llu}}%s\n",
                 s.name.c_str(), s.start_us, s.end_us - s.start_us, s.id,
                 s.parent, static_cast<unsigned long long>(run_id_),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
