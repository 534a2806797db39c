// Minimal leveled logger used by the library and tools.
//
// The minimum level defaults to kInfo and can be overridden without a
// recompile through the FLO_LOG_LEVEL environment variable (debug / info /
// warning / error, or 0-3), read once at first use; tools can still flip
// it from the command line via SetLogLevel. FLO_LOG checks the level (a
// relaxed atomic load) before it builds the message stream, so a filtered
// hot-path FLO_LOG(kDebug) statement (e.g. in the tuner's search) costs
// one branch and evaluates none of its arguments. Emission is serialized
// behind a mutex — threads sharing a Tuner or a PlanStore can log without
// interleaving bytes on stderr — and can be redirected to a custom sink.
#ifndef SRC_UTIL_LOGGING_H_
#define SRC_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace flo {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
};

// Global minimum level; messages below it are dropped. The first
// GetLogLevel (or filtered FLO_LOG) applies FLO_LOG_LEVEL from the
// environment; SetLogLevel overrides it for the rest of the process.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Parses a level name ("debug", "INFO", "2", ...); returns false and
// leaves *level untouched on unrecognized input.
bool ParseLogLevel(const std::string& text, LogLevel* level);

// Redirects emission. The sink runs under the logging mutex (one message
// at a time); pass nullptr to restore the stderr default.
using LogSinkFn = void (*)(LogLevel level, const char* file, int line,
                           const std::string& message, void* ctx);
void SetLogSink(LogSinkFn sink, void* ctx);

// Emits one formatted line through the current sink. Thread-safe.
void LogMessage(LogLevel level, const char* file, int line, const std::string& message);

namespace log_internal {

// Collects one message; FLO_LOG constructs it only for enabled levels.
class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace log_internal
}  // namespace flo

#define FLO_LOG(level)                                 \
  if (::flo::LogLevel::level < ::flo::GetLogLevel()) { \
  } else /* NOLINT */                                  \
    ::flo::log_internal::LogStream(::flo::LogLevel::level, __FILE__, __LINE__)

#endif  // SRC_UTIL_LOGGING_H_
