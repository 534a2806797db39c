#include "src/sim/trace_export.h"

#include "src/util/check.h"
#include "src/util/file.h"
#include "src/util/table.h"

namespace flo {

std::string EscapeJsonString(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

TraceArg TraceArg::Num(std::string key, double value) {
  return TraceArg{std::move(key), FormatDoubleExact(value)};
}

TraceArg TraceArg::Int(std::string key, int64_t value) {
  return TraceArg{std::move(key), std::to_string(value)};
}

TraceArg TraceArg::Str(std::string key, const std::string& value) {
  return TraceArg{std::move(key), "\"" + EscapeJsonString(value) + "\""};
}

TraceArg TraceArg::Bool(std::string key, bool value) {
  return TraceArg{std::move(key), value ? "true" : "false"};
}

ChromeTraceBuilder::ChromeTraceBuilder() = default;

std::ostringstream& ChromeTraceBuilder::Begin(const char* ph, int64_t pid,
                                              const std::string& name, double ts_us) {
  if (events_ > 0) {
    out_ << ",";
  }
  ++events_;
  out_ << "{\"name\":\"" << EscapeJsonString(name) << "\",\"ph\":\"" << ph
       << "\",\"pid\":" << pid << ",\"ts\":" << FormatDoubleExact(ts_us);
  return out_;
}

void ChromeTraceBuilder::AppendArgs(const std::vector<TraceArg>& args) {
  if (args.empty()) {
    return;
  }
  out_ << ",\"args\":{";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      out_ << ",";
    }
    out_ << "\"" << EscapeJsonString(args[i].key) << "\":" << args[i].value;
  }
  out_ << "}";
}

void ChromeTraceBuilder::ProcessName(int64_t pid, const std::string& name) {
  Begin("M", pid, "process_name", 0.0);
  out_ << ",\"args\":{\"name\":\"" << EscapeJsonString(name) << "\"}}";
}

void ChromeTraceBuilder::ThreadName(int64_t pid, int64_t tid, const std::string& name) {
  Begin("M", pid, "thread_name", 0.0);
  out_ << ",\"tid\":" << tid << ",\"args\":{\"name\":\"" << EscapeJsonString(name) << "\"}}";
}

void ChromeTraceBuilder::Complete(int64_t pid, int64_t tid, const std::string& name,
                                  double ts_us, double dur_us,
                                  const std::vector<TraceArg>& args) {
  Begin("X", pid, name, ts_us);
  out_ << ",\"dur\":" << FormatDoubleExact(dur_us) << ",\"tid\":" << tid;
  AppendArgs(args);
  out_ << "}";
}

void ChromeTraceBuilder::AsyncBegin(int64_t pid, const std::string& category, uint64_t id,
                                    const std::string& name, double ts_us,
                                    const std::vector<TraceArg>& args) {
  Begin("b", pid, name, ts_us);
  out_ << ",\"cat\":\"" << EscapeJsonString(category) << "\",\"id\":\"" << id << "\"";
  AppendArgs(args);
  out_ << "}";
}

void ChromeTraceBuilder::AsyncEnd(int64_t pid, const std::string& category, uint64_t id,
                                  const std::string& name, double ts_us) {
  Begin("e", pid, name, ts_us);
  out_ << ",\"cat\":\"" << EscapeJsonString(category) << "\",\"id\":\"" << id << "\"}";
}

void ChromeTraceBuilder::Instant(int64_t pid, int64_t tid, const std::string& name,
                                 double ts_us, const std::vector<TraceArg>& args) {
  Begin("i", pid, name, ts_us);
  out_ << ",\"tid\":" << tid << ",\"s\":\"p\"";
  AppendArgs(args);
  out_ << "}";
}

std::string ChromeTraceBuilder::Json() const {
  return "{\"traceEvents\":[" + out_.str() + "]}";
}

bool ChromeTraceBuilder::WriteFile(const std::string& path) const {
  return WriteStringToFile(path, Json());
}

std::string ChromeTraceJson(const std::vector<TraceTrack>& tracks) {
  ChromeTraceBuilder builder;
  for (size_t track = 0; track < tracks.size(); ++track) {
    FLO_CHECK(tracks[track].timeline != nullptr);
    builder.ThreadName(0, static_cast<int64_t>(track), tracks[track].name);
    for (const TaskSpan& span : tracks[track].timeline->spans()) {
      builder.Complete(0, static_cast<int64_t>(track), span.name, span.start,
                       span.end - span.start);
    }
  }
  return builder.Json();
}

bool WriteChromeTrace(const std::vector<TraceTrack>& tracks, const std::string& path) {
  return WriteStringToFile(path, ChromeTraceJson(tracks));
}

}  // namespace flo
