module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Machine = Procsim.Machine
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Order = Rescont.Service_order

type request = { bytes : int; completion : unit -> unit }

type t = {
  machine : Machine.t;
  order : request Queue.t Order.t; (* the request queues, one per reader *)
  mutable in_service : bool;
  mutable busy_ns : int;
  mutable completed : int;
}

(* A late-1990s SCSI disk: average positioning time, and a 20 MB/s media
   rate in bytes per nanosecond. *)
let seek_time = Simtime.ms 8
let bytes_per_ns = 20. *. 1e6 /. 1e9

let create ~machine () =
  { machine; order = Order.create (); in_service = false; busy_ns = 0; completed = 0 }

let service_time (_ : t) ~bytes =
  let transfer_ns = int_of_float (Float.round (float_of_int bytes /. bytes_per_ns)) in
  Simtime.span_add seek_time (Simtime.span_of_ns transfer_ns)

(* A destroyed reader's entry leaves once its queue is empty; until then
   its queued reads are served, and charged, like any other. *)
let leave_if_done t e =
  if Queue.is_empty (Order.fifo e) && Container.is_destroyed (Order.container e) then
    Order.remove t.order e

let entry_for t container =
  match Order.find t.order container with
  | e -> e
  | exception Not_found ->
      let e = Order.add t.order container (Queue.create ()) in
      if not (Container.is_destroyed container) then
        Container.on_destroy container (fun _ -> leave_if_done t e);
      e

(* The network stack's service order (§4.4), ranked by CPU priority. *)
let priority c = (Container.attrs c).Attrs.priority

let rec start_next t =
  if not t.in_service then
    match Order.best t.order priority with
    | None -> ()
    | Some e ->
        let q = Order.fifo e in
        let request = Queue.take q in
        let container = Order.container e in
        t.in_service <- true;
        Order.popped t.order e ~empty:(Queue.is_empty q);
        leave_if_done t e;
        let span = service_time t ~bytes:request.bytes in
        Sim.post (Machine.sim t.machine) span (fun () ->
            t.in_service <- false;
            t.busy_ns <- t.busy_ns + Simtime.span_to_ns span;
            t.completed <- t.completed + 1;
            Container.charge_disk container ~bytes:request.bytes span;
            request.completion ();
            start_next t)

let submit t ~container ~bytes completion =
  if bytes < 0 then invalid_arg "Disk.submit: negative size";
  let e = entry_for t container in
  Queue.push { bytes; completion } (Order.fifo e);
  Order.pushed t.order e;
  start_next t

let read t ~container ~bytes =
  let wq = Machine.Waitq.create t.machine in
  submit t ~container ~bytes (fun () -> Machine.Waitq.signal wq);
  Machine.Waitq.wait wq

let busy_time t = Simtime.span_of_ns t.busy_ns
let completed t = t.completed
