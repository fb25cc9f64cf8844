type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length t = t.size

let add_last t x =
  if t.size = Array.length t.data then begin
    let ncap = max 8 (2 * Array.length t.data) in
    let a = Array.make ncap x in
    Array.blit t.data 0 a 0 t.size;
    t.data <- a
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1

let check t i =
  if i < 0 || i >= t.size then invalid_arg "Vec: index out of bounds"

let get t i =
  check t i;
  t.data.(i)

let iter f t =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

let to_array t = Array.sub t.data 0 t.size
