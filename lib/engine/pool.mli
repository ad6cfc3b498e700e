(** The process's one pool of worker domains.

    Both kinds of parallelism in the simulator run here: a parameter
    sweep submits one batch whose tasks are whole runs
    ([Harness.Sweep.map]), and a sharded run submits one batch per time
    window whose tasks are its lanes of shards ({!Shard.run_windows}).

    Workers are spawned on first demand, parked on a condition variable
    between batches, and joined when the program exits, so a sharded run
    that submits a batch every few microseconds of simulated time reuses
    the same domains for every window.  Which domain runs which task is
    not deterministic; callers keep results deterministic by making each
    task write only its own state. *)

val run : domains:int -> int -> (int -> unit) -> unit
(** [run ~domains n f] runs [f 0], ..., [f (n - 1)] on up to [domains]
    domains, counting the caller, which always takes part.  It returns
    when every task has finished.  There is no cap here beyond
    [min domains n]; callers that want the host's core count as a cap
    apply it themselves.

    With one domain, or when called from inside a task of another
    batch (or while another domain's batch is in flight), the tasks run
    in index order on the calling domain and the first exception
    propagates at once.  Otherwise, if a task raises, the tasks not yet
    started are skipped and the first exception is re-raised on the
    caller, with its backtrace, once the batch has drained.
    @raise Invalid_argument if [domains < 1]. *)
