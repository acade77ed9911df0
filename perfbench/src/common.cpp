#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

i64 Ledger::attempted() const {
  i64 n = 0;
  for (const auto& [label, count] : attempts_) n += count;
  return n;
}

i64 Ledger::failed() const {
  i64 n = 0;
  for (const auto& [label, why] : failures_) {
    auto it = attempts_.find(label);
    n += it == attempts_.end() ? 1 : it->second;
  }
  return n;
}

double Latencies::median() const {
  if (ms.empty()) return 0;
  std::vector<double> s = ms;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Latencies::tail() const {
  if (ms.empty()) return 0;
  std::vector<double> s = ms;
  std::sort(s.begin(), s.end());
  // The highest whole percentile (at most the 99th) that leaves at least
  // ten samples above it; with fewer than forty samples, the median.
  if (s.size() < 40) return median();
  const double n = static_cast<double>(s.size());
  for (int p = 99; p >= 50; --p) {
    const size_t at = static_cast<size_t>(std::ceil(p / 100.0 * n)) - 1;
    if (s.size() - at - 1 >= 10) return s[at];
  }
  return median();
}

double Latencies::mean() const {
  if (ms.empty()) return 0;
  double sum = 0;
  for (double v : ms) sum += v;
  return sum / static_cast<double>(ms.size());
}

double selfCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double selfPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double processCpuMs(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields overall.
  const size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double processPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

void printResult(bool correct, const Ledger& ledger, const Metrics& metrics) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
     << ledger.attempted() << ", \"failed\": " << ledger.failed() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << m.value
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

namespace {

/// A fixed amount of integer work the optimizer cannot remove.
u64 spin(u64 iterations) {
  u64 x = 0x9e3779b97f4a7c15ULL;
  for (u64 i = 0; i < iterations; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x;
}

}  // namespace

void printParallelismLine() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const u64 work = u64(40) << 20;
  std::atomic<u64> sink{0};
  auto t0 = Clock::now();
  sink += spin(work);
  const double oneMs = msSince(t0);
  t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < nproc; ++i)
    threads.emplace_back([&] { sink += spin(work / nproc); });
  for (std::thread& t : threads) t.join();
  const double allMs = msSince(t0);
  std::printf("parallelism: nproc=%u effective=%.2f (spin %.1f ms on 1 thread, %.1f ms on %u)"
              " [%llu]\n",
              nproc, allMs > 0 ? oneMs / allMs : 0.0, oneMs, allMs, nproc,
              static_cast<unsigned long long>(sink.load() & 1));
}

Zipf::Zipf(size_t n, double s) {
  double sum = 0;
  for (size_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), s);
    cdf_.push_back(sum);
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::draw(Rng& rng) const {
  const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) {
    tracer_ = nullptr;
    return;
  }
  Span s;
  s.name = name;
  s.startMs = tracer_->nowMs();
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  s.request = tracer_->request_;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].endMs = tracer_->nowMs();
  tracer_->open_.pop_back();
}

void Tracer::record(const char* name, double durationMs) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.endMs = nowMs();
  s.startMs = s.endMs - durationMs;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  spans_.push_back(std::move(s));
}

std::map<std::string, std::pair<double, i64>> Tracer::selfTimes() const {
  // Children of one parent never overlap (one thread records sequentially),
  // so the covered time is the sum of the children's durations.
  std::vector<double> childMs(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) childMs[s.parent] += s.endMs - s.startMs;
  std::map<std::string, std::pair<double, i64>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& slot = out[spans_[i].name];
    slot.first += std::max(0.0, spans_[i].endMs - spans_[i].startMs - childMs[i]);
    slot.second += 1;
  }
  return out;
}

double Tracer::meanRoot(const std::string& name) const {
  double sum = 0;
  i64 n = 0;
  for (const Span& s : spans_)
    if (s.parent < 0 && s.name == name) {
      sum += s.endMs - s.startMs;
      ++n;
    }
  return n > 0 ? sum / static_cast<double>(n) : 0;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out.precision(12);
  for (const Span& s : spans_)
    out << "{\"name\": \"" << s.name << "\", \"start_ms\": " << s.startMs
        << ", \"end_ms\": " << s.endMs << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}\n";
}

void removeTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
