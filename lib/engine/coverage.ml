(* Line-coverage bit vectors: bit [l mod 8] of byte [l / 8] is line [l]. *)

let create ~nlines = Bytes.make ((nlines / 8) + 1) '\000'

let mem v line = Char.code (Bytes.get v (line / 8)) land (1 lsl (line mod 8)) <> 0

let add v line =
  (not (mem v line))
  && begin
       let b = Char.code (Bytes.get v (line / 8)) in
       Bytes.set v (line / 8) (Char.chr (b lor (1 lsl (line mod 8))));
       true
     end

let popcount v =
  let n = ref 0 in
  Bytes.iter
    (fun c ->
      let x = ref (Char.code c) in
      while !x <> 0 do
        x := !x land (!x - 1);
        incr n
      done)
    v;
  !n

let union_into acc v =
  let acc =
    if Bytes.length acc >= Bytes.length v then acc
    else begin
      let g = Bytes.make (Bytes.length v) '\000' in
      Bytes.blit acc 0 g 0 (Bytes.length acc);
      g
    end
  in
  for i = 0 to Bytes.length v - 1 do
    Bytes.set acc i (Char.chr (Char.code (Bytes.get acc i) lor Char.code (Bytes.get v i)))
  done;
  acc

let fraction ~coverable covered =
  if coverable <= 0 then 1.0 else float_of_int covered /. float_of_int coverable
