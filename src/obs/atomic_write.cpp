#include "obs/atomic_write.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "core/error.hpp"

namespace dpma::obs {
namespace {

std::string errno_text() {
    return std::strerror(errno);
}

/// write(2) the whole buffer, resuming on EINTR and partial writes.
/// Returns false (with errno set) on failure.
bool write_fully(int fd, const char* data, std::size_t size) {
    while (size > 0) {
        const ssize_t n = ::write(fd, data, size);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        if (n == 0) {
            errno = EIO;
            return false;
        }
        data += n;
        size -= static_cast<std::size_t>(n);
    }
    return true;
}

/// Directory part of \p path ("." when there is none), for the
/// durability-completing fsync of the directory entry after rename(2).
std::string directory_of(const std::string& path) {
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos) return ".";
    if (slash == 0) return "/";
    return path.substr(0, slash);
}

}  // namespace

void atomic_write(const std::string& path, std::string_view text) {
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        throw Error("cannot write " + path + ": open " + tmp + ": " + errno_text());
    }
    const bool written = write_fully(fd, text.data(), text.size());
    const bool synced = written && ::fsync(fd) == 0;
    const int saved_errno = errno;
    ::close(fd);
    if (!written || !synced) {
        ::unlink(tmp.c_str());
        errno = saved_errno;
        throw Error("cannot write " + path + ": " +
                    (written ? "fsync" : "write") + " failed: " + errno_text());
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string reason = errno_text();
        ::unlink(tmp.c_str());
        throw Error("cannot write " + path + ": rename failed: " + reason);
    }
    // Make the rename itself durable.  Best effort: some filesystems reject
    // directory fsync, and by this point the content is already atomic.
    const int dir_fd = ::open(directory_of(path).c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
        (void)::fsync(dir_fd);
        ::close(dir_fd);
    }
}

}  // namespace dpma::obs
