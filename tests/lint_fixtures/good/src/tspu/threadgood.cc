// Fixture: raw-thread negative, and a reachability negative — mentioning
// runner::checkpointed_map or parallel_map in a comment must not make this
// file a worker entry point or a threading violation.
namespace tspu::core {

int add(int a, int b) { return a + b; }

}  // namespace tspu::core
