// Minimal leveled logging.
//
// The simulator is deterministic and single-threaded, so logging is a simple
// global-level filter writing to a configurable stream; benches silence it,
// examples turn on Info to narrate what the service decides.
//
// When a sim-time clock is installed (set_clock), every line is prefixed
// with the current simulated time — `[12.5s] [info] ...` — so logs line up
// with trace timestamps.  Without a clock the historical `[info] ...`
// format is unchanged.
#pragma once

#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "common/sim_time.h"

namespace vod {

enum class LogLevel {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

/// Global logging configuration; defaults to Warn on stderr.
class Logger {
 public:
  static Logger& instance() {
    // vodlint:allow(shared-mutable-global: configured once at startup; the
    // level read is a single enum load and log emission is test/CLI-side)
    static Logger logger;
    return logger;
  }

  void set_level(LogLevel level) { level_ = level; }
  [[nodiscard]] LogLevel level() const { return level_; }

  void set_stream(std::ostream* stream) { stream_ = stream; }

  /// Installs a simulated-time source for line prefixes; pass nullptr (or
  /// an empty function) to restore clockless output.
  void set_clock(std::function<SimTime()> clock) {
    clock_ = std::move(clock);
  }

  void write(LogLevel level, const std::string& message) {
    if (level < level_ || stream_ == nullptr) return;
    if (clock_) *stream_ << '[' << clock_() << "] ";
    *stream_ << '[' << name(level) << "] " << message << '\n';
  }

 private:
  Logger() = default;

  static const char* name(LogLevel level) {
    switch (level) {
      case LogLevel::kTrace:
        return "trace";
      case LogLevel::kDebug:
        return "debug";
      case LogLevel::kInfo:
        return "info";
      case LogLevel::kWarn:
        return "warn";
      case LogLevel::kError:
        return "error";
      case LogLevel::kOff:
        return "off";
    }
    return "?";
  }

  LogLevel level_ = LogLevel::kWarn;
  std::ostream* stream_ = &std::cerr;
  std::function<SimTime()> clock_;
};

namespace log_detail {
inline void emit(LogLevel level, const std::ostringstream& os) {
  Logger::instance().write(level, os.str());
}
}  // namespace log_detail

}  // namespace vod

// Streaming log macros: VOD_LOG_INFO("chose server " << id << " cost " << c);
#define VOD_LOG_AT(vod_log_level, expr)                               \
  do {                                                                \
    if ((vod_log_level) >= ::vod::Logger::instance().level()) {       \
      std::ostringstream vod_log_os;                                  \
      vod_log_os << expr;                                             \
      ::vod::log_detail::emit((vod_log_level), vod_log_os);           \
    }                                                                 \
  } while (false)

#define VOD_LOG_TRACE(expr) VOD_LOG_AT(::vod::LogLevel::kTrace, expr)
#define VOD_LOG_DEBUG(expr) VOD_LOG_AT(::vod::LogLevel::kDebug, expr)
#define VOD_LOG_INFO(expr) VOD_LOG_AT(::vod::LogLevel::kInfo, expr)
#define VOD_LOG_WARN(expr) VOD_LOG_AT(::vod::LogLevel::kWarn, expr)
#define VOD_LOG_ERROR(expr) VOD_LOG_AT(::vod::LogLevel::kError, expr)
