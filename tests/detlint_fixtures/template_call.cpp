// Fixture: cross-shard-mutate reached through a call with explicit
// template arguments — the call graph must see `helper<int>(...)` as a
// call to helper, or the mutation hides behind the '>'.
struct PeerSampler;  // marks this file as a protocol implementation

template <typename T>
void helper(T n) { drops_.loss += n; }

void on_message(int from) {
  helper<int>(from);
}
