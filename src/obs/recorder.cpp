#include "obs/recorder.hpp"

#include <charconv>
#include <cstdlib>

namespace uno {

namespace {
// CSV cell conversions. std::to_chars with a precision is specified as
// printf's "%.*g" in the C locale, and on an integer it prints what
// std::to_string does, without the allocation or the format parsing.
char* put_g6(char* p, double v) {
  return std::to_chars(p, p + 32, v, std::chars_format::general, 6).ptr;
}
template <typename Int>
char* put_int(char* p, Int v) {
  return std::to_chars(p, p + 24, v).ptr;
}
}  // namespace

Recorder Recorder::from_env(const char* var) {
  const char* dir = std::getenv(var);
  if (dir == nullptr || dir[0] == '\0') return Recorder{};
  return Recorder{std::string(dir)};
}

std::string Recorder::path_for(const std::string& file) const {
  if (file.empty() || file.front() == '/') return file;
  if (dir_.empty() || dir_ == ".") return file;
  if (dir_.back() == '/') return dir_ + file;
  return dir_ + "/" + file;
}

std::string Recorder::Csv::fmt(double v) {
  char buf[48];
  return std::string(buf, put_g6(buf, v));
}

void Recorder::Csv::row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << cells[i];
  }
  out_ << '\n';
}

Recorder::Csv Recorder::csv(const std::string& file) const {
  // A disabled recorder hands back a writer on an unopenable path so the
  // caller's ok() check short-circuits the row loop.
  if (!enabled_) return Csv{std::string{}};
  return Csv{path_for(file)};
}

bool Recorder::time_series(const std::string& file,
                           const std::vector<const TimeSeries*>& series) const {
  if (!enabled_ || series.empty()) return false;
  Csv w = csv(file);
  if (!w.ok()) return false;
  std::vector<std::string> header{"time_us"};
  for (const TimeSeries* s : series) header.push_back(s->label);
  w.row(header);
  const std::size_t rows = series[0]->size();
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<std::string> cells{Csv::fmt(to_microseconds(series[0]->t[i]))};
    for (const TimeSeries* s : series)
      cells.push_back(i < s->size() ? Csv::fmt(s->v[i]) : "");
    w.row(cells);
  }
  return true;
}

bool Recorder::flow_results(const std::string& file,
                            std::span<const FlowResult> results) const {
  if (!enabled_) return false;
  Csv w = csv(file);
  if (!w.ok()) return false;
  // Each row is formatted once into a reused buffer, flushed in large chunks.
  std::string buf = "id,src,dst,interdc,bytes,start_us,fct_us,pkts,rtx,nacks,fec_masked\n";
  constexpr std::size_t kFlushBytes = 1 << 16;
  char line[256];
  for (const FlowResult& r : results) {
    char* p = line;
    const auto cell = [&p](auto v) {
      p = put_int(p, v);
      *p++ = ',';
    };
    cell(r.id);
    cell(r.src);
    cell(r.dst);
    *p++ = r.interdc ? '1' : '0';
    *p++ = ',';
    cell(r.size_bytes);
    p = put_g6(p, to_microseconds(r.start_time));
    *p++ = ',';
    p = put_g6(p, to_microseconds(r.completion_time));
    *p++ = ',';
    cell(r.packets_sent);
    cell(r.retransmits);
    cell(r.nacks);
    p = put_int(p, r.fec_masked);
    *p++ = '\n';
    buf.append(line, static_cast<std::size_t>(p - line));
    if (buf.size() >= kFlushBytes) {
      w.write(buf);
      buf.clear();
    }
  }
  w.write(buf);
  return true;
}

bool Recorder::metrics(const std::string& file, const MetricRegistry& m) const {
  if (!enabled_) return false;
  return m.write_json(path_for(file));
}

}  // namespace uno
