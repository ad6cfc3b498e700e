module Simtime = Engine.Simtime

(* A struct-of-arrays accumulator arena: every [create] takes one integer
   slot in its run's arena, and each accumulator (cpu ns, packets, bytes,
   memory, …) is a flat [int array] indexed by slot.  A charge is a
   handful of int stores into parallel arrays, and the accumulators of
   containers created together (a rig's tree, built in creation order)
   sit in adjacent cache lines.  The usage record is the only
   per-container allocation accounting ever makes.

   Hierarchical roll-up uses the [parent] array: {!Container} links each
   container's subtree-accumulator slot to its parent's, so charging a
   whole ancestor chain is an index walk [slot -> parent.(slot) -> …]
   over one int array.

   Slots are never reclaimed: a destroyed container's accumulators stay
   readable (billing closes its last cycle against them) and the arena
   only ever grows — bounded by the number of containers ever created in
   the run, two slots each.  Each run ({!Container.create_root}) owns one
   arena, which becomes garbage with the run's last container.  The
   record-based implementation these semantics are specified by is
   [Spec.Usage_ref]. *)

exception Negative_memory of { have : int; delta : int }

let () =
  Printexc.register_printer (function
    | Negative_memory { have; delta } ->
        Some (Printf.sprintf "Usage.Negative_memory (have %d B, delta %d B)" have delta)
    | _ -> None)

type arena = {
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

type t = { arena : arena; slot : int }

let create_arena () =
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

let set_strict a on = a.strict <- on

let grow a =
  let cap = Array.length a.cpu_user in
  let ncap = cap * 2 in
  let g col fill =
    let n = Array.make ncap fill in
    Array.blit col 0 n 0 cap;
    n
  in
  a.cpu_user <- g a.cpu_user 0;
  a.cpu_kernel <- g a.cpu_kernel 0;
  a.rx_packets <- g a.rx_packets 0;
  a.rx_bytes <- g a.rx_bytes 0;
  a.tx_packets <- g a.tx_packets 0;
  a.tx_bytes <- g a.tx_bytes 0;
  a.memory_bytes <- g a.memory_bytes 0;
  a.kernel_objects <- g a.kernel_objects 0;
  a.disk_reads <- g a.disk_reads 0;
  a.disk_bytes <- g a.disk_bytes 0;
  a.disk_time <- g a.disk_time 0;
  a.parent <- g a.parent (-1)

let create arena =
  if arena.used = Array.length arena.cpu_user then grow arena;
  let slot = arena.used in
  arena.used <- slot + 1;
  { arena; slot }

let slot t = t.slot

let set_chain_parent t parent =
  match parent with
  | None -> t.arena.parent.(t.slot) <- -1
  | Some p ->
      if not (p.arena == t.arena) then
        invalid_arg "Usage.set_chain_parent: usages belong to different ledger arenas";
      t.arena.parent.(t.slot) <- p.slot

(* {2 Per-slot charging} *)

(* Under armed invariants a refund that exceeds the balance is a hard
   accounting error; otherwise it saturates at zero, matching what a
   defensive kernel counter would do. *)
let add_memory a slot delta =
  let have = a.memory_bytes.(slot) in
  let balance = have + delta in
  if balance < 0 then
    if a.strict then raise (Negative_memory { have; delta }) else a.memory_bytes.(slot) <- 0
  else a.memory_bytes.(slot) <- balance

let add_disk a slot ~bytes ns =
  a.disk_reads.(slot) <- a.disk_reads.(slot) + 1;
  a.disk_bytes.(slot) <- a.disk_bytes.(slot) + bytes;
  a.disk_time.(slot) <- a.disk_time.(slot) + ns

let charge_cpu t ~kernel span =
  let col = if kernel then t.arena.cpu_kernel else t.arena.cpu_user in
  col.(t.slot) <- col.(t.slot) + Simtime.span_to_ns span

let charge_rx t ~packets ~bytes =
  let a = t.arena and s = t.slot in
  a.rx_packets.(s) <- a.rx_packets.(s) + packets;
  a.rx_bytes.(s) <- a.rx_bytes.(s) + bytes

let charge_tx t ~packets ~bytes =
  let a = t.arena and s = t.slot in
  a.tx_packets.(s) <- a.tx_packets.(s) + packets;
  a.tx_bytes.(s) <- a.tx_bytes.(s) + bytes

let charge_memory t delta = add_memory t.arena t.slot delta
let charge_disk t ~bytes span = add_disk t.arena t.slot ~bytes (Simtime.span_to_ns span)

let add_kernel_objects t delta =
  let a = t.arena and s = t.slot in
  a.kernel_objects.(s) <- a.kernel_objects.(s) + delta

let incr_kernel_objects t = add_kernel_objects t 1
let decr_kernel_objects t = add_kernel_objects t (-1)

(* {2 Ancestor-chain charging}

   Start at the usage's slot and follow [parent] links to the top,
   applying the charge at every step — the container's own subtree
   accumulator first, then each ancestor's (the strict-memory raise point
   depends on that order). *)

let add_chain col parent slot v =
  let i = ref slot in
  while !i >= 0 do
    Array.unsafe_set col !i (Array.unsafe_get col !i + v);
    i := Array.unsafe_get parent !i
  done

let charge_cpu_chain t ~kernel span =
  let a = t.arena in
  let col = if kernel then a.cpu_kernel else a.cpu_user in
  add_chain col a.parent t.slot (Simtime.span_to_ns span)

let add_pair_chain ap ab parent slot ~packets ~bytes =
  let i = ref slot in
  while !i >= 0 do
    Array.unsafe_set ap !i (Array.unsafe_get ap !i + packets);
    Array.unsafe_set ab !i (Array.unsafe_get ab !i + bytes);
    i := Array.unsafe_get parent !i
  done

let charge_rx_chain t ~packets ~bytes =
  let a = t.arena in
  add_pair_chain a.rx_packets a.rx_bytes a.parent t.slot ~packets ~bytes

let charge_tx_chain t ~packets ~bytes =
  let a = t.arena in
  add_pair_chain a.tx_packets a.tx_bytes a.parent t.slot ~packets ~bytes

let charge_memory_chain t delta =
  let a = t.arena in
  let i = ref t.slot in
  while !i >= 0 do
    add_memory a !i delta;
    i := a.parent.(!i)
  done

let charge_disk_chain t ~bytes span =
  let a = t.arena and ns = Simtime.span_to_ns span in
  let i = ref t.slot in
  while !i >= 0 do
    add_disk a !i ~bytes ns;
    i := a.parent.(!i)
  done

(* {2 Reading — allocation-free scalar accessors} *)

let cpu_user_ns t = t.arena.cpu_user.(t.slot)
let cpu_kernel_ns t = t.arena.cpu_kernel.(t.slot)
let cpu_ns t = cpu_user_ns t + cpu_kernel_ns t
let mem_bytes t = t.arena.memory_bytes.(t.slot)
let disk_ns t = t.arena.disk_time.(t.slot)

let cpu_total t = Simtime.span_of_ns (cpu_ns t)
let cpu_user t = Simtime.span_of_ns (cpu_user_ns t)
let cpu_kernel t = Simtime.span_of_ns (cpu_kernel_ns t)
let rx_packets t = t.arena.rx_packets.(t.slot)
let rx_bytes t = t.arena.rx_bytes.(t.slot)
let tx_packets t = t.arena.tx_packets.(t.slot)
let tx_bytes t = t.arena.tx_bytes.(t.slot)
let memory_bytes t = mem_bytes t
let kernel_objects t = t.arena.kernel_objects.(t.slot)
let disk_reads t = t.arena.disk_reads.(t.slot)
let disk_bytes t = t.arena.disk_bytes.(t.slot)
let disk_time t = Simtime.span_of_ns (disk_ns t)

type snapshot = {
  cpu_total : Simtime.span;
  cpu_user : Simtime.span;
  cpu_kernel : Simtime.span;
  rx_packets : int;
  rx_bytes : int;
  tx_packets : int;
  tx_bytes : int;
  memory_bytes : int;
  kernel_objects : int;
  disk_reads : int;
  disk_bytes : int;
  disk_time : Simtime.span;
}

let snapshot t =
  {
    cpu_total = cpu_total t;
    cpu_user = cpu_user t;
    cpu_kernel = cpu_kernel t;
    rx_packets = rx_packets t;
    rx_bytes = rx_bytes t;
    tx_packets = tx_packets t;
    tx_bytes = tx_bytes t;
    memory_bytes = memory_bytes t;
    kernel_objects = kernel_objects t;
    disk_reads = disk_reads t;
    disk_bytes = disk_bytes t;
    disk_time = disk_time t;
  }

let reset t =
  let a = t.arena and s = t.slot in
  a.cpu_user.(s) <- 0;
  a.cpu_kernel.(s) <- 0;
  a.rx_packets.(s) <- 0;
  a.rx_bytes.(s) <- 0;
  a.tx_packets.(s) <- 0;
  a.tx_bytes.(s) <- 0;
  a.memory_bytes.(s) <- 0;
  a.kernel_objects.(s) <- 0;
  a.disk_reads.(s) <- 0;
  a.disk_bytes.(s) <- 0;
  a.disk_time.(s) <- 0

let pp ppf (t : t) =
  Format.fprintf ppf "cpu=%a (u=%a k=%a) rx=%d/%dB tx=%d/%dB mem=%dB objs=%d" Simtime.pp_span
    (cpu_total t) Simtime.pp_span (cpu_user t) Simtime.pp_span (cpu_kernel t) (rx_packets t)
    (rx_bytes t) (tx_packets t) (tx_bytes t) (memory_bytes t) (kernel_objects t)
