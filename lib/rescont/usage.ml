module Simtime = Engine.Simtime

exception Negative_memory = Ledger.Negative_memory

(* Under armed invariants a refund that exceeds the balance is a hard
   accounting error; otherwise it saturates at zero, matching what a
   defensive kernel counter would do.  The flag is domain-local so a fuzz
   run arming invariants inside one sweep domain cannot change the
   semantics of rigs running concurrently in other domains. *)
let strict_memory = Domain.DLS.new_key (fun () -> false)

let set_strict_memory on = Domain.DLS.set strict_memory on
let strict_memory_enabled () = Domain.DLS.get strict_memory

(* A usage is a slot in the domain's struct-of-arrays {!Ledger} arena:
   charges and reads index flat int arrays, and this record is the only
   per-container allocation accounting ever makes.  The record-based
   implementation these semantics are specified by is [Spec.Usage_ref]. *)
type t = { arena : Ledger.t; slot : int }

let create () =
  let arena = Ledger.get () in
  { arena; slot = Ledger.alloc arena }

let slot t = t.slot
let same_arena a b = a.arena == b.arena
let renew_domain_arena = Ledger.renew

let set_chain_parent t parent =
  match parent with
  | None -> Ledger.set_parent t.arena ~slot:t.slot ~parent:(-1)
  | Some p ->
      if not (p.arena == t.arena) then
        invalid_arg "Usage.set_chain_parent: usages belong to different domain arenas";
      Ledger.set_parent t.arena ~slot:t.slot ~parent:p.slot

let charge_cpu t ~kernel span = Ledger.add_cpu t.arena t.slot ~kernel (Simtime.span_to_ns span)
let charge_rx t ~packets ~bytes = Ledger.add_rx t.arena t.slot ~packets ~bytes
let charge_tx t ~packets ~bytes = Ledger.add_tx t.arena t.slot ~packets ~bytes

let charge_memory t delta =
  Ledger.add_memory t.arena t.slot ~strict:(strict_memory_enabled ()) delta

let charge_disk t ~bytes span =
  Ledger.add_disk t.arena t.slot ~bytes (Simtime.span_to_ns span)

let incr_kernel_objects t = Ledger.add_kernel_objects t.arena t.slot 1
let decr_kernel_objects t = Ledger.add_kernel_objects t.arena t.slot (-1)

(* Chain variants walk the arena's parent-slot links (self first, then
   each ancestor) — used by [Container] for subtree roll-up. *)
let charge_cpu_chain t ~kernel span =
  Ledger.add_cpu_chain t.arena t.slot ~kernel (Simtime.span_to_ns span)

let charge_rx_chain t ~packets ~bytes = Ledger.add_rx_chain t.arena t.slot ~packets ~bytes
let charge_tx_chain t ~packets ~bytes = Ledger.add_tx_chain t.arena t.slot ~packets ~bytes

let charge_memory_chain t delta =
  Ledger.add_memory_chain t.arena t.slot ~strict:(strict_memory_enabled ()) delta

let charge_disk_chain t ~bytes span =
  Ledger.add_disk_chain t.arena t.slot ~bytes (Simtime.span_to_ns span)

(* {2 Reading — allocation-free scalar accessors} *)

let cpu_ns t = Ledger.cpu_user t.arena t.slot + Ledger.cpu_kernel t.arena t.slot
let cpu_user_ns t = Ledger.cpu_user t.arena t.slot
let cpu_kernel_ns t = Ledger.cpu_kernel t.arena t.slot
let mem_bytes t = Ledger.memory_bytes t.arena t.slot
let disk_ns t = Ledger.disk_time t.arena t.slot

let cpu_total t = Simtime.span_of_ns (cpu_ns t)
let cpu_user t = Simtime.span_of_ns (cpu_user_ns t)
let cpu_kernel t = Simtime.span_of_ns (cpu_kernel_ns t)
let rx_packets t = Ledger.rx_packets t.arena t.slot
let rx_bytes t = Ledger.rx_bytes t.arena t.slot
let tx_packets t = Ledger.tx_packets t.arena t.slot
let tx_bytes t = Ledger.tx_bytes t.arena t.slot
let memory_bytes t = mem_bytes t
let kernel_objects t = Ledger.kernel_objects t.arena t.slot
let disk_reads t = Ledger.disk_reads t.arena t.slot
let disk_bytes t = Ledger.disk_bytes t.arena t.slot
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

let reset t = Ledger.reset t.arena t.slot

let pp ppf (t : t) =
  Format.fprintf ppf "cpu=%a (u=%a k=%a) rx=%d/%dB tx=%d/%dB mem=%dB objs=%d" Simtime.pp_span
    (cpu_total t) Simtime.pp_span (cpu_user t) Simtime.pp_span (cpu_kernel t) (rx_packets t)
    (rx_bytes t) (tx_packets t) (tx_bytes t) (memory_bytes t) (kernel_objects t)
