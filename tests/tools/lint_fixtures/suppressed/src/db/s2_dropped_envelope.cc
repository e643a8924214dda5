// Fixture: S2 violation carrying a valid, reasoned suppression.

namespace orchestra::db {

template <typename T>
class Result {
 public:
  bool ok() const { return true; }
};

Result<int> UnwrapEnvelope(const char* framed);

void Caller(const char* framed) {
  // ORCH_LINT(allow:S2): fixture; this probe only warms the decode cache
  UnwrapEnvelope(framed);
}

}  // namespace orchestra::db
