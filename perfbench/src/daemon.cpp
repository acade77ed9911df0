#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::atomic<int> gDaemonCount{0};

}  // namespace

Daemon::Daemon(const Settings& settings, int jobs) {
  // Relative socket path: the checkout's absolute path may exceed the
  // 108-byte sun_path limit; both processes share this working directory.
  socket_ = settings.runDir + "/d" + std::to_string(::getpid()) + "-" +
            std::to_string(gDaemonCount++) + ".sock";
  ::unlink(socket_.c_str());
  const std::string socketArg = "--socket=" + socket_;
  const std::string jobsArg = "--jobs=" + std::to_string(jobs);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The daemon must not outlive the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(1);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
    ::execl(settings.daemonBinary.c_str(), settings.daemonBinary.c_str(), socketArg.c_str(),
            jobsArg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  const auto t0 = Clock::now();
  while (msSince(t0) < 10000) {
    try {
      emm::svc::ServiceClient probe(socket_);
      return;
    } catch (const std::exception&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("emmapcd exited during start-up");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop();
  throw std::runtime_error("emmapcd did not accept connections within 10 s");
}

Daemon::~Daemon() { stop(); }

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (msSince(t0) > 10000) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  ::unlink(socket_.c_str());
}

void addStatsDelta(Counters& counters, const emm::svc::WireStats& before,
                   const emm::svc::WireStats& after) {
  counters.serverFastPath += after.familyFastPath - before.familyFastPath;
  counters.serverMemoryHits += after.memory.hits - before.memory.hits;
  counters.serverFamilyHits += after.memory.familyHits - before.memory.familyHits;
  counters.serverCompiles += after.compiles - before.compiles;
}

ServiceProbe::ServiceProbe(const Settings& settings) : daemon_(settings, 2) {
  client_ = std::make_unique<emm::svc::ServiceClient>(daemon_.socket());
  before_ = client_->stats();
}

void ServiceProbe::probe(Tracer& tracer, Counters& counters, const emm::ProgramBlock& block,
                         const emm::CompileOptions& options) {
  emm::svc::CompileRequest req;
  req.block = block;
  req.options = options;
  emm::svc::WireCompileReply reply = client_->compile(std::move(req));
  tracer.record("client", reply.roundTripMillis);
  counters.serverMs += reply.serverMillis;
  counters.wireMs += reply.roundTripMillis - reply.serverMillis;
  ++counters.serverReplies;
}

void ServiceProbe::finish(Counters& counters) {
  addStatsDelta(counters, before_, client_->stats());
  client_.reset();
  daemon_.stop();
}

}  // namespace perfbench
