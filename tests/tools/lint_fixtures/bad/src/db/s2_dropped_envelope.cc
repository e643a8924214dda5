// Fixture: S2 — an envelope decode whose Result is dropped at statement
// position, the shape that consumes bytes while discarding the checksum
// verdict.

namespace orchestra::db {

template <typename T>
class Result {
 public:
  bool ok() const { return true; }
};

Result<int> UnwrapEnvelope(const char* framed);

void Caller(const char* framed) {
  UnwrapEnvelope(framed);
}

}  // namespace orchestra::db
