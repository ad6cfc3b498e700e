module Simtime = Engine.Simtime
module Sim = Engine.Sim
module Machine = Procsim.Machine
module Container = Rescont.Container
module Attrs = Rescont.Attrs
module Usage = Rescont.Usage

type request = { bytes : int; completion : unit -> unit }

type t = {
  machine : Machine.t;
  queues : (int, request Queue.t * Container.t) Hashtbl.t;
  served_stamp : (int, int) Hashtbl.t;
  mutable tick : int;
  mutable in_service : bool;
  mutable busy_ns : int;
  mutable completed : int;
}

(* A late-1990s SCSI disk: average positioning time, and a 20 MB/s media
   rate in bytes per nanosecond. *)
let seek_time = Simtime.ms 8
let bytes_per_ns = 20. *. 1e6 /. 1e9

let create ~machine () =
  {
    machine;
    queues = Hashtbl.create 16;
    served_stamp = Hashtbl.create 16;
    tick = 0;
    in_service = false;
    busy_ns = 0;
    completed = 0;
  }

let service_time (_ : t) ~bytes =
  let transfer_ns = int_of_float (Float.round (float_of_int bytes /. bytes_per_ns)) in
  Simtime.span_add seek_time (Simtime.span_of_ns transfer_ns)

let queue_for t container =
  let cid = Container.id container in
  match Hashtbl.find_opt t.queues cid with
  | Some (q, _) -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues cid (q, container);
      q

(* Container-priority order, least-recently-served among equals — the same
   discipline as the network stack's deferred-processing queues. *)
let best_pending t =
  let stamp c =
    match Hashtbl.find_opt t.served_stamp (Container.id c) with Some s -> s | None -> -1
  in
  Hashtbl.fold
    (fun _ (q, c) acc ->
      if Queue.is_empty q then acc
      else
        let prio = (Container.attrs c).Attrs.priority in
        match acc with
        | Some (best, best_prio)
          when best_prio > prio || (best_prio = prio && stamp best <= stamp c) ->
            acc
        | Some _ | None -> Some (c, prio))
    t.queues None

let rec start_next t =
  if not t.in_service then
    match best_pending t with
    | None -> ()
    | Some (container, _) -> (
        match Queue.take_opt (queue_for t container) with
        | None -> ()
        | Some request ->
            t.in_service <- true;
            t.tick <- t.tick + 1;
            Hashtbl.replace t.served_stamp (Container.id container) t.tick;
            let span = service_time t ~bytes:request.bytes in
            Sim.post (Machine.sim t.machine) span (fun () ->
                   t.in_service <- false;
                   t.busy_ns <- t.busy_ns + Simtime.span_to_ns span;
                   t.completed <- t.completed + 1;
                   Container.charge_disk container ~bytes:request.bytes span;
                   request.completion ();
                   start_next t))

let submit t ~container ~bytes completion =
  if bytes < 0 then invalid_arg "Disk.submit: negative size";
  Queue.push { bytes; completion } (queue_for t container);
  start_next t

let read t ~container ~bytes =
  let wq = Machine.Waitq.create ~name:"disk-read" t.machine in
  submit t ~container ~bytes (fun () -> Machine.Waitq.signal wq);
  Machine.Waitq.wait wq

let busy_time t = Simtime.span_of_ns t.busy_ns
let completed t = t.completed
