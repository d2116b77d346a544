(* The trace sink: tick-stamped events in a bounded ring buffer.

   The ring bounds memory on long runs — when full, the oldest events are
   overwritten, so the buffer always holds the most recent [capacity]
   records; the ring feeds the Chrome exporter. *)

type record = { r_tick : int; r_worker : int; r_event : Event.t }

type t = {
  ring : record option array;
  mutable head : int;     (* next write position *)
  mutable appended : int; (* total records ever appended *)
}

let create ?(capacity = 65536) () =
  { ring = Array.make (max 1 capacity) None; head = 0; appended = 0 }

let capacity t = Array.length t.ring
let appended t = t.appended
let dropped t = max 0 (t.appended - Array.length t.ring)

let record t ~tick ~worker event =
  let r = { r_tick = tick; r_worker = worker; r_event = event } in
  t.ring.(t.head) <- Some r;
  t.head <- (t.head + 1) mod Array.length t.ring;
  t.appended <- t.appended + 1

(* Buffered records, oldest first. *)
let contents t =
  let n = Array.length t.ring in
  let live = min t.appended n in
  let start = (t.head - live + (2 * n)) mod n in
  List.init live (fun i ->
      match t.ring.((start + i) mod n) with Some r -> r | None -> assert false)

let iter f t = List.iter f (contents t)
