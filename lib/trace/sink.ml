type t = { emit : Trace_event.t -> unit }

type collector = { mutable rev_events : Trace_event.t list }

let collector () = { rev_events = [] }
let collector_sink c = { emit = (fun e -> c.rev_events <- e :: c.rev_events) }

let collected c = List.rev c.rev_events
