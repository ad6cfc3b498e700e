(** Reference early-demultiplex semantics (paper §4.8): the executable
    specification that {!Netsim.Stack.demux_lookup} must agree with on
    every (port, source). *)

val lookup :
  Netsim.Socket.listen list -> port:int -> src:Netsim.Ipaddr.t -> Netsim.Socket.listen option
(** A fold over the installed listen sockets, in any order, picking the
    most specific matching filter, ties to the earliest bound (lowest
    listen id). *)
