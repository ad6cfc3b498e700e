type t = {
  name : string;
  enqueue : Task.t -> unit;
  dequeue : Task.t -> unit;
  requeue : Task.t -> unit;
  pick : now:Engine.Simtime.t -> Task.t;
  charge : container:Rescont.Container.t -> now:Engine.Simtime.t -> Engine.Simtime.span -> unit;
  next_release : now:Engine.Simtime.t -> Engine.Simtime.t option;
  runnable_count : unit -> int;
}
