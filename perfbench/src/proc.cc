#include "proc.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuLayout PlanCpus() {
  CpuLayout layout;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) layout.all.push_back(c);
    }
  }
  if (layout.all.size() >= 2) {
    layout.generator = {layout.all.front()};
    layout.servers.assign(layout.all.begin() + 1, layout.all.end());
  } else {
    layout.generator = layout.all;
    layout.servers = layout.all;
  }
  return layout;
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (size_t i = 0; i < cpus.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(cpus[i]);
  }
  return out;
}

void PinSelf(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

ServerProcess SpawnServer(const std::string& bin,
                          const std::vector<std::string>& args,
                          const std::vector<int>& cpus,
                          const std::string& log_path) {
  ServerProcess proc;
  proc.log_path = log_path;
  proc.args = args;
  // Everything the child needs is prepared before fork: only
  // async-signal-safe calls run between fork and exec.
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "MANIRANK_", 9) != 0) env_strings.emplace_back(*e);
  }
  std::vector<char*> envp;
  for (std::string& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  std::vector<std::string> argv_strings = {bin};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot open " + log_path);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    // A server must not outlive a generator that was killed mid-run.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (!cpus.empty()) sched_setaffinity(0, sizeof(set), &set);
    ::dup2(log_fd, 2);
    const int null_fd = ::open("/dev/null", O_RDWR);
    if (null_fd >= 0) {
      ::dup2(null_fd, 0);
      ::dup2(null_fd, 1);
    }
    ::execve(bin.c_str(), argv.data(), envp.data());
    _exit(127);
  }
  ::close(log_fd);
  proc.pid = pid;
  const int64_t deadline = NowNs() + 60'000'000'000LL;
  while (NowNs() < deadline) {
    const std::string log = Slurp(log_path);
    const size_t at = log.find("listening on port ");
    if (at != std::string::npos && log.find('\n', at) != std::string::npos) {
      proc.port = std::atoi(log.c_str() + at + 18);
      return proc;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      proc.pid = -1;
      throw std::runtime_error("manirank_serve exited during start-up: " + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  StopServer(&proc);
  throw std::runtime_error("manirank_serve did not report its port");
}

int StopServer(ServerProcess* proc) {
  if (proc->pid < 0) return 0;
  ::kill(proc->pid, SIGTERM);
  int status = 0;
  while (::waitpid(proc->pid, &status, 0) < 0 && errno == EINTR) {
  }
  proc->pid = -1;
  return status;
}

double CpuMs(pid_t pid) {
  const std::string stat = Slurp("/proc/" + std::to_string(pid) + "/stat");
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb(pid_t pid) {
  std::istringstream in(Slurp("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

std::string FsType(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x794c7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return os.str();
    }
  }
}

namespace {

constexpr int kClientTimeoutMs = 120'000;

void WaitFor(int fd, short events) {
  pollfd pfd{fd, events, 0};
  int rc = 0;
  while ((rc = ::poll(&pfd, 1, kClientTimeoutMs)) < 0 && errno == EINTR) {
  }
  if (rc == 0) throw std::runtime_error("socket timed out");
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             " failed: " + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

int ConnectNonBlocking(int port) {
  const int fd = ConnectTo(port);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

LineClient::LineClient(int port) : fd_(ConnectTo(port)) {}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::Send(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    WaitFor(fd_, POLLOUT);
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<size_t>(n);
  }
}

std::string LineClient::ReadLine() {
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    WaitFor(fd_, POLLIN);
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed by server");
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string LineClient::Call(const std::string& line) {
  Send(line + "\n");
  return ReadLine();
}

}  // namespace perfbench
