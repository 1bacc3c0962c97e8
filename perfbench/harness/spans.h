// In-memory span recorder for the traced run.
//
// Every span has a name, a start, an end, a parent span and a run id. Spans
// are kept in memory and written once at exit as Chrome trace JSON (the
// "X" complete-event form), which Perfetto and chrome://tracing load. A
// disabled recorder costs one branch per scope.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  Spans(bool enabled, std::uint64_t run_id);

  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int id = 0;
    int parent = -1;  // -1 = root
  };

  class Scope {
   public:
    Scope(Spans& spans, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_ = -1;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Duration of the most recent span with this name, in seconds (0 when
  // there is none).
  [[nodiscard]] double last_s(const std::string& name) const;

  // Writes the Chrome trace JSON; false on I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] double now_us() const;

  bool enabled_;
  std::uint64_t run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
