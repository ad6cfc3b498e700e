module Container = Rescont.Container
module Desc_table = Rescont.Desc_table

type t = {
  pid : int;
  name : string;
  machine : Machine.t;
  default_container : Container.t;
  descriptors : Desc_table.t;
  mutable threads : Machine.thread list;
  container_parent : Container.t;
}

(* Pids count per run, from the machine's root. *)
let make machine ~container_parent ~descriptors ~name =
  let pid = Container.fresh_id (Container.run (Machine.root machine)) Container.Pids in
  let default_container =
    Container.create ~name:(Printf.sprintf "proc-%s-%d" name pid) ~parent:container_parent ()
  in
  { pid; name; machine; default_container; descriptors; threads = []; container_parent }

let create machine ?container_parent ~name () =
  let container_parent =
    match container_parent with Some c -> c | None -> Machine.root machine
  in
  make machine ~container_parent ~descriptors:(Desc_table.create ()) ~name

let pid t = t.pid
let name t = t.name
let machine t = t.machine
let default_container t = t.default_container
let descriptors t = t.descriptors
let threads t = t.threads

let spawn_thread t ?container ~name body =
  let container = match container with Some c -> c | None -> t.default_container in
  let thread = Machine.spawn t.machine ~name ~container body in
  t.threads <- thread :: t.threads;
  thread

let fork t ~name body =
  let child =
    make t.machine ~container_parent:t.container_parent
      ~descriptors:(Desc_table.inherit_all t.descriptors) ~name
  in
  let thread = spawn_thread child ~name:(name ^ "-main") body in
  (child, thread)

let exit_all t =
  List.iter (Machine.kill t.machine) t.threads;
  t.threads <- [];
  Desc_table.close_all t.descriptors;
  Container.release t.default_container

let pp ppf t =
  Format.fprintf ppf "pid=%d %s (%d threads)" t.pid t.name (List.length t.threads)
