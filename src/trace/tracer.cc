#include "trace/tracer.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/json.h"

namespace tictac::trace {

std::vector<Span> CollectSpans(const runtime::Lowering& lowering,
                               const sim::SimResult& result,
                               const core::Graph& worker_graph) {
  std::vector<Span> spans;
  spans.reserve(lowering.tasks.size());
  const sim::TaskGraph& tasks = lowering.tasks;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    Span span;
    span.resource = tasks.resource[t];
    span.worker = tasks.worker[t];
    span.kind = tasks.kind[t];
    span.start = result.start[t];
    span.end = result.end[t];
    if (tasks.op[t] != core::kInvalidOp) {
      span.name = worker_graph.op(tasks.op[t]).name;
      if (span.worker >= 0) {
        span.name = "w" + std::to_string(span.worker) + "/" + span.name;
      }
    } else {
      span.name = std::string("ps/") + core::ToString(span.kind);
    }
    spans.push_back(std::move(span));
  }
  return spans;
}

std::string ToChromeTraceJson(const std::vector<Span>& spans) {
  std::ostringstream os;
  os << "[\n";
  bool first = true;
  for (const Span& span : spans) {
    if (!first) os << ",\n";
    first = false;
    // Span names embed op names from user-loaded graphs (core/io), so
    // they may contain '"', '\' or control characters; emitting them
    // verbatim would produce JSON chrome://tracing rejects.
    os << R"({"name":")" << util::JsonEscape(span.name)
       << R"(","ph":"X","pid":0,"tid":)" << span.resource << R"(,"ts":)"
       << span.start * 1e6 << R"(,"dur":)" << (span.end - span.start) * 1e6
       << R"(,"cat":")" << util::JsonEscape(core::ToString(span.kind))
       << R"("})";
  }
  os << "\n]\n";
  return os.str();
}

void WriteChromeTrace(const std::vector<Span>& spans,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << ToChromeTraceJson(spans);
}

}  // namespace tictac::trace
