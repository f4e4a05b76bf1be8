#ifndef MANIRANK_PERFBENCH_PROC_H_
#define MANIRANK_PERFBENCH_PROC_H_

// Process, CPU and socket plumbing for the load generator: spawning
// manirank_serve on its own CPUs, reading /proc accounting, and a
// blocking line client for set-up and control traffic.

#include <sched.h>
#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

/// Which CPUs the generator and the servers run on. With fewer than two
/// allowed CPUs nothing is pinned.
struct CpuLayout {
  std::vector<int> generator;
  std::vector<int> servers;
  std::vector<int> all;
};
CpuLayout PlanCpus();
std::string CpuList(const std::vector<int>& cpus);
/// Pins the calling process (every thread created afterwards inherits it).
void PinSelf(const std::vector<int>& cpus);

/// One manirank_serve child. Its stderr goes to `log_path`; Spawn waits
/// for the "listening on port N" line.
struct ServerProcess {
  pid_t pid = -1;
  int port = 0;
  std::string log_path;
  std::vector<std::string> args;
};

/// Spawns `bin args...` pinned to `cpus`, with every MANIRANK_* variable
/// removed from its environment so the server runs on defaults. Throws
/// std::runtime_error when the port line does not appear within 60 s.
ServerProcess SpawnServer(const std::string& bin,
                          const std::vector<std::string>& args,
                          const std::vector<int>& cpus,
                          const std::string& log_path);
/// SIGTERM (graceful drain) and wait. Returns the exit status.
int StopServer(ServerProcess* proc);

/// utime + stime of a live process, in milliseconds.
double CpuMs(pid_t pid);
/// VmHWM of a live process, in MiB.
double PeakRssMb(pid_t pid);

/// Filesystem type name of `path` (statfs magic).
std::string FsType(const std::string& path);

/// Blocking loopback line client; every call fails with
/// std::runtime_error after 120 s without progress.
class LineClient {
 public:
  explicit LineClient(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void Send(const std::string& bytes);
  std::string ReadLine();
  /// Send one request line and read its response.
  std::string Call(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Connects a non-blocking TCP_NODELAY socket to 127.0.0.1:port.
int ConnectNonBlocking(int port);

}  // namespace perfbench

#endif  // MANIRANK_PERFBENCH_PROC_H_
