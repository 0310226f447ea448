#include "serve/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "common/atomic_file.h"

namespace lipformer {
namespace serve {

namespace {

constexpr char kMagic[8] = {'L', 'P', 'F', 'C', 'K', 'P', 'T', '2'};
constexpr uint32_t kVersion = 2;

// Caps on untrusted length fields, far above anything the library
// produces; they turn corrupt headers into clean errors instead of
// gigabyte allocations.
constexpr uint32_t kMaxStringLen = 1 << 20;       // 1 MiB names/values
constexpr uint32_t kMaxRank = 16;
constexpr uint32_t kMaxEntries = 1 << 24;

// Bounded reader over the checkpoint stream: every primitive read reports
// truncation as a Status instead of leaving the stream in a failed state
// the caller forgets to test. `left` is the byte count between the read
// position and the end of the file.
class Reader {
 public:
  Reader(std::istream* in, const std::string& path, int64_t left)
      : in_(in), path_(path), left_(left) {}

  int64_t left() const { return left_; }

  Status ReadBytes(void* dst, size_t n, const char* what) {
    in_->read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (static_cast<size_t>(in_->gcount()) != n) {
      return Status::InvalidArgument("truncated checkpoint " + path_ +
                                     ": unexpected EOF in " + what);
    }
    left_ -= static_cast<int64_t>(n);
    return Status::OK();
  }

  template <typename T>
  Status ReadScalar(T* out, const char* what) {
    return ReadBytes(out, sizeof(T), what);
  }

  Status ReadString(std::string* out, uint32_t max_len, const char* what) {
    uint32_t len = 0;
    LIPF_RETURN_IF_ERROR(ReadScalar(&len, what));
    if (len > max_len) {
      return Status::InvalidArgument(
          "corrupt checkpoint " + path_ + ": implausible length " +
          std::to_string(len) + " in " + what);
    }
    out->resize(len);
    if (len == 0) return Status::OK();
    return ReadBytes(out->data(), len, what);
  }

 private:
  std::istream* in_;
  const std::string& path_;
  int64_t left_;
};

// The file's size in bytes, leaving the read position at its start; -1
// when the stream cannot seek.
int64_t StreamSize(std::ifstream& in) {
  std::streambuf* buf = in.rdbuf();
  const std::streamoff end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  if (end < 0 || buf->pubseekpos(0, std::ios::in) != 0) return -1;
  return static_cast<int64_t>(end);
}

template <typename T>
Status AppendScalar(AtomicFile& out, T value) {
  return out.Append(&value, sizeof(T));
}

Status AppendString(AtomicFile& out, const std::string& s) {
  LIPF_RETURN_IF_ERROR(AppendScalar<uint32_t>(
      out, static_cast<uint32_t>(s.size())));
  return out.Append(s.data(), s.size());
}

}  // namespace

const CheckpointTensor* Checkpoint::Find(const std::string& name) const {
  for (const CheckpointTensor& t : tensors) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::string Checkpoint::Meta(const std::string& key,
                             const std::string& def) const {
  auto it = metadata.find(key);
  return it == metadata.end() ? def : it->second;
}

Status WriteCheckpoint(const std::string& path, const Checkpoint& ckpt) {
  // All checkpoint writes are crash-durable: a kill (or injected write
  // failure) at any point leaves whatever was previously at `path`
  // byte-identical, never a torn v2 file.
  Result<AtomicFile> created = AtomicFile::Create(path);
  if (!created.ok()) return created.status();
  AtomicFile out = std::move(created.value());
  LIPF_RETURN_IF_ERROR(out.Append(kMagic, sizeof(kMagic)));
  LIPF_RETURN_IF_ERROR(AppendScalar<uint32_t>(out, kVersion));
  LIPF_RETURN_IF_ERROR(AppendScalar<uint32_t>(
      out, static_cast<uint32_t>(ckpt.metadata.size())));
  for (const auto& [key, value] : ckpt.metadata) {
    LIPF_RETURN_IF_ERROR(AppendString(out, key));
    LIPF_RETURN_IF_ERROR(AppendString(out, value));
  }
  LIPF_RETURN_IF_ERROR(AppendScalar<uint32_t>(
      out, static_cast<uint32_t>(ckpt.tensors.size())));
  for (const CheckpointTensor& t : ckpt.tensors) {
    LIPF_RETURN_IF_ERROR(AppendString(out, t.name));
    const Shape& shape = t.data.shape();
    LIPF_RETURN_IF_ERROR(
        AppendScalar<uint32_t>(out, static_cast<uint32_t>(shape.size())));
    for (int64_t d : shape) {
      LIPF_RETURN_IF_ERROR(AppendScalar<int64_t>(out, d));
    }
    const uint64_t bytes =
        static_cast<uint64_t>(t.data.numel()) * sizeof(float);
    LIPF_RETURN_IF_ERROR(AppendScalar<uint64_t>(out, bytes));
    LIPF_RETURN_IF_ERROR(out.Append(t.data.data(), bytes));
  }
  return out.Commit();
}

Result<Checkpoint> ReadCheckpoint(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open for read: " + path);
  std::istream* stream = &file;
  int64_t file_bytes = StreamSize(file);
  // A pipe has no size to hold each tensor's byte length against, so its
  // bytes are read into memory first: memory grows only with the bytes
  // that arrived, and the checks below see the stream's true size.
  std::istringstream piped;
  if (file_bytes < 0) {
    std::string bytes(std::istreambuf_iterator<char>(file), {});
    file_bytes = static_cast<int64_t>(bytes.size());
    piped.str(std::move(bytes));
    stream = &piped;
  }
  std::istream& in = *stream;

  char magic[sizeof(kMagic)] = {};
  in.read(magic, sizeof(magic));
  const size_t header_bytes = static_cast<size_t>(in.gcount());
  if (header_bytes < sizeof(magic) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    // v1 files start with a u64 parameter count instead of a magic; the
    // distinction does not matter for safety (both are rejected), only
    // for the advice in the message.
    return Status::InvalidArgument(
        "not a v2 checkpoint: " + path +
        " (missing LPFCKPT2 magic). If this is a legacy v1 parameter "
        "file, migrate it with `checkpoint_convert --in=" + path +
        " --out=... --model=... <architecture flags>`.");
  }

  Reader reader(&in, path, file_bytes - static_cast<int64_t>(header_bytes));
  uint32_t version = 0;
  LIPF_RETURN_IF_ERROR(reader.ReadScalar(&version, "version"));
  if (version != kVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) +
        " in " + path + " (this build reads version 2)");
  }

  Checkpoint ckpt;
  uint32_t num_metadata = 0;
  LIPF_RETURN_IF_ERROR(reader.ReadScalar(&num_metadata, "metadata count"));
  if (num_metadata > kMaxEntries) {
    return Status::InvalidArgument("corrupt checkpoint " + path +
                                   ": implausible metadata count");
  }
  for (uint32_t i = 0; i < num_metadata; ++i) {
    std::string key, value;
    LIPF_RETURN_IF_ERROR(reader.ReadString(&key, kMaxStringLen,
                                           "metadata key"));
    LIPF_RETURN_IF_ERROR(reader.ReadString(&value, kMaxStringLen,
                                           "metadata value"));
    ckpt.metadata[key] = std::move(value);
  }

  uint32_t num_tensors = 0;
  LIPF_RETURN_IF_ERROR(reader.ReadScalar(&num_tensors, "tensor count"));
  if (num_tensors > kMaxEntries) {
    return Status::InvalidArgument("corrupt checkpoint " + path +
                                   ": implausible tensor count");
  }
  ckpt.tensors.reserve(num_tensors);
  for (uint32_t i = 0; i < num_tensors; ++i) {
    CheckpointTensor entry;
    LIPF_RETURN_IF_ERROR(reader.ReadString(&entry.name, kMaxStringLen,
                                           "tensor name"));
    uint32_t rank = 0;
    LIPF_RETURN_IF_ERROR(reader.ReadScalar(&rank, "tensor rank"));
    if (rank > kMaxRank) {
      return Status::InvalidArgument("corrupt checkpoint " + path +
                                     ": tensor '" + entry.name +
                                     "' has implausible rank " +
                                     std::to_string(rank));
    }
    Shape shape(rank);
    int64_t numel = 1;
    for (uint32_t d = 0; d < rank; ++d) {
      LIPF_RETURN_IF_ERROR(reader.ReadScalar(&shape[d], "tensor dims"));
      if (shape[d] < 0 ||
          (shape[d] > 0 &&
           numel > std::numeric_limits<int64_t>::max() / shape[d])) {
        return Status::InvalidArgument("corrupt checkpoint " + path +
                                       ": tensor '" + entry.name +
                                       "' has invalid dims");
      }
      numel *= shape[d];
    }
    uint64_t byte_len = 0;
    LIPF_RETURN_IF_ERROR(reader.ReadScalar(&byte_len, "tensor byte length"));
    // Both checks come before the allocation: a shape whose byte size
    // overflows, or data the file does not hold, must not reach it.
    if (static_cast<uint64_t>(numel) >
            std::numeric_limits<uint64_t>::max() / sizeof(float) ||
        byte_len != static_cast<uint64_t>(numel) * sizeof(float)) {
      return Status::InvalidArgument(
          "corrupt checkpoint " + path + ": tensor '" + entry.name +
          "' byte length " + std::to_string(byte_len) +
          " does not match shape " + ShapeToString(shape));
    }
    if (byte_len > static_cast<uint64_t>(reader.left())) {
      return Status::InvalidArgument(
          "truncated checkpoint " + path + ": tensor '" + entry.name +
          "' needs " + std::to_string(byte_len) + " bytes, the file has " +
          std::to_string(reader.left()) + " left");
    }
    entry.data = Tensor::Empty(std::move(shape));
    LIPF_RETURN_IF_ERROR(
        reader.ReadBytes(entry.data.data(), byte_len, "tensor data"));
    ckpt.tensors.push_back(std::move(entry));
  }

  // The file must end exactly after the last tensor: trailing bytes mean
  // the file does not describe what the header promised.
  char extra;
  in.read(&extra, 1);
  if (in.gcount() != 0) {
    return Status::InvalidArgument("corrupt checkpoint " + path +
                                   ": trailing bytes after the last tensor");
  }
  return ckpt;
}

}  // namespace serve
}  // namespace lipformer
