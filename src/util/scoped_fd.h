// RAII owner of a POSIX file descriptor.
#ifndef TIMPP_UTIL_SCOPED_FD_H_
#define TIMPP_UTIL_SCOPED_FD_H_

#include <unistd.h>

namespace timpp {

/// Closes the descriptor it holds (if any, i.e. >= 0) on destruction or
/// Reset.
class ScopedFd {
 public:
  explicit ScopedFd(int fd = -1) : fd_(fd) {}
  ~ScopedFd() { Reset(); }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }

  /// Closes the held descriptor and takes `fd` instead.
  void Reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_;
};

}  // namespace timpp

#endif  // TIMPP_UTIL_SCOPED_FD_H_
