(* The struct-of-arrays accumulator arena behind {!Usage}.

   Every [Usage.create] takes one integer slot in its run's arena; each
   accumulator (cpu ns, packets, bytes, memory, …) is a flat [int array]
   indexed by slot.  A charge is a handful of int stores into parallel
   arrays — no boxed record per container, no pointer chasing, and the
   accumulators of containers created together (a rig's tree, built in
   creation order) sit in adjacent cache lines.

   Hierarchical roll-up uses the [parent] array: {!Container} links each
   container's subtree-accumulator slot to its parent's, so charging a
   whole ancestor chain is an index walk [slot -> parent.(slot) -> …]
   over one int array instead of a walk over boxed records.

   Slots are never reclaimed: a destroyed container's accumulators stay
   readable (billing closes its last cycle against them) and the arena
   only ever grows — bounded by the number of containers ever created in
   the run, two slots each.  Each run ({!Container.create_root}) owns one
   arena, which becomes garbage with the run's last container. *)

exception Negative_memory of { have : int; delta : int }

let () =
  Printexc.register_printer (function
    | Negative_memory { have; delta } ->
        Some (Printf.sprintf "Usage.Negative_memory (have %d B, delta %d B)" have delta)
    | _ -> None)

type t = {
  mutable cpu_user : int array; (* ns *)
  mutable cpu_kernel : int array; (* ns *)
  mutable rx_packets : int array;
  mutable rx_bytes : int array;
  mutable tx_packets : int array;
  mutable tx_bytes : int array;
  mutable memory_bytes : int array;
  mutable kernel_objects : int array;
  mutable disk_reads : int array;
  mutable disk_bytes : int array;
  mutable disk_time : int array; (* ns *)
  mutable parent : int array; (* slot of the parent's subtree accumulator; -1 = none *)
  mutable used : int;
  mutable strict : bool; (* over-refunds raise: the run's invariants are armed *)
}

let create () =
  let cap = 256 in
  {
    cpu_user = Array.make cap 0;
    cpu_kernel = Array.make cap 0;
    rx_packets = Array.make cap 0;
    rx_bytes = Array.make cap 0;
    tx_packets = Array.make cap 0;
    tx_bytes = Array.make cap 0;
    memory_bytes = Array.make cap 0;
    kernel_objects = Array.make cap 0;
    disk_reads = Array.make cap 0;
    disk_bytes = Array.make cap 0;
    disk_time = Array.make cap 0;
    parent = Array.make cap (-1);
    used = 0;
    strict = false;
  }

let set_strict t on = t.strict <- on

let grow t =
  let cap = Array.length t.cpu_user in
  let ncap = cap * 2 in
  let g a fill =
    let n = Array.make ncap fill in
    Array.blit a 0 n 0 cap;
    n
  in
  t.cpu_user <- g t.cpu_user 0;
  t.cpu_kernel <- g t.cpu_kernel 0;
  t.rx_packets <- g t.rx_packets 0;
  t.rx_bytes <- g t.rx_bytes 0;
  t.tx_packets <- g t.tx_packets 0;
  t.tx_bytes <- g t.tx_bytes 0;
  t.memory_bytes <- g t.memory_bytes 0;
  t.kernel_objects <- g t.kernel_objects 0;
  t.disk_reads <- g t.disk_reads 0;
  t.disk_bytes <- g t.disk_bytes 0;
  t.disk_time <- g t.disk_time 0;
  t.parent <- g t.parent (-1)

let alloc t =
  if t.used = Array.length t.cpu_user then grow t;
  let slot = t.used in
  t.used <- slot + 1;
  slot

let used t = t.used
let set_parent t ~slot ~parent = t.parent.(slot) <- parent
let parent t slot = t.parent.(slot)

(* {2 Per-slot charging} *)

let add_cpu t slot ~kernel ns =
  if kernel then t.cpu_kernel.(slot) <- t.cpu_kernel.(slot) + ns
  else t.cpu_user.(slot) <- t.cpu_user.(slot) + ns

let add_rx t slot ~packets ~bytes =
  t.rx_packets.(slot) <- t.rx_packets.(slot) + packets;
  t.rx_bytes.(slot) <- t.rx_bytes.(slot) + bytes

let add_tx t slot ~packets ~bytes =
  t.tx_packets.(slot) <- t.tx_packets.(slot) + packets;
  t.tx_bytes.(slot) <- t.tx_bytes.(slot) + bytes

(* Under armed invariants a refund that exceeds the balance is a hard
   accounting error; otherwise it saturates at zero, matching what a
   defensive kernel counter would do. *)
let add_memory t slot delta =
  let have = t.memory_bytes.(slot) in
  let balance = have + delta in
  if balance < 0 then
    if t.strict then raise (Negative_memory { have; delta }) else t.memory_bytes.(slot) <- 0
  else t.memory_bytes.(slot) <- balance

let add_disk t slot ~bytes ns =
  t.disk_reads.(slot) <- t.disk_reads.(slot) + 1;
  t.disk_bytes.(slot) <- t.disk_bytes.(slot) + bytes;
  t.disk_time.(slot) <- t.disk_time.(slot) + ns

let add_kernel_objects t slot delta = t.kernel_objects.(slot) <- t.kernel_objects.(slot) + delta

(* {2 Ancestor-chain charging}

   Start at [slot] and follow [parent] links to the top, applying the
   charge at every step — the container's own subtree accumulator first,
   then each ancestor's, in the same self-to-root order the old
   record-chain walk used (the strict-memory raise point depends on it). *)

let add_cpu_chain t slot ~kernel ns =
  if kernel then begin
    let a = t.cpu_kernel and p = t.parent in
    let i = ref slot in
    while !i >= 0 do
      Array.unsafe_set a !i (Array.unsafe_get a !i + ns);
      i := Array.unsafe_get p !i
    done
  end
  else begin
    let a = t.cpu_user and p = t.parent in
    let i = ref slot in
    while !i >= 0 do
      Array.unsafe_set a !i (Array.unsafe_get a !i + ns);
      i := Array.unsafe_get p !i
    done
  end

let add_rx_chain t slot ~packets ~bytes =
  let ap = t.rx_packets and ab = t.rx_bytes and p = t.parent in
  let i = ref slot in
  while !i >= 0 do
    Array.unsafe_set ap !i (Array.unsafe_get ap !i + packets);
    Array.unsafe_set ab !i (Array.unsafe_get ab !i + bytes);
    i := Array.unsafe_get p !i
  done

let add_tx_chain t slot ~packets ~bytes =
  let ap = t.tx_packets and ab = t.tx_bytes and p = t.parent in
  let i = ref slot in
  while !i >= 0 do
    Array.unsafe_set ap !i (Array.unsafe_get ap !i + packets);
    Array.unsafe_set ab !i (Array.unsafe_get ab !i + bytes);
    i := Array.unsafe_get p !i
  done

let add_memory_chain t slot delta =
  let i = ref slot in
  while !i >= 0 do
    add_memory t !i delta;
    i := t.parent.(!i)
  done

let add_disk_chain t slot ~bytes ns =
  let i = ref slot in
  while !i >= 0 do
    add_disk t !i ~bytes ns;
    i := t.parent.(!i)
  done

(* {2 Reading} *)

let cpu_user t slot = t.cpu_user.(slot)
let cpu_kernel t slot = t.cpu_kernel.(slot)
let rx_packets t slot = t.rx_packets.(slot)
let rx_bytes t slot = t.rx_bytes.(slot)
let tx_packets t slot = t.tx_packets.(slot)
let tx_bytes t slot = t.tx_bytes.(slot)
let memory_bytes t slot = t.memory_bytes.(slot)
let kernel_objects t slot = t.kernel_objects.(slot)
let disk_reads t slot = t.disk_reads.(slot)
let disk_bytes t slot = t.disk_bytes.(slot)
let disk_time t slot = t.disk_time.(slot)

let reset t slot =
  t.cpu_user.(slot) <- 0;
  t.cpu_kernel.(slot) <- 0;
  t.rx_packets.(slot) <- 0;
  t.rx_bytes.(slot) <- 0;
  t.tx_packets.(slot) <- 0;
  t.tx_bytes.(slot) <- 0;
  t.memory_bytes.(slot) <- 0;
  t.kernel_objects.(slot) <- 0;
  t.disk_reads.(slot) <- 0;
  t.disk_bytes.(slot) <- 0;
  t.disk_time.(slot) <- 0
